"""Command line behavior: exit codes, JSON output, key lifecycle, and
benchmark reproducibility. Commands run in-process through main()."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairing381 import CsprngState, Engine, keygen, sign
from pairing381.bench import run_bench
from pairing381.cli import main
from pairing381.params import EXECUTABLE_WORD_SIZES, cios_cost_model

SEED_A = "ab" * 32
SEED_B = "cd" * 32


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    return code, lines


def test_keygen_sign_verify(tmp_path, capsys):
    sk = tmp_path / "a.sk"
    pk = tmp_path / "a.pk"
    sig = tmp_path / "a.sig"
    code, out = run(capsys, "keygen", "--seed", SEED_A,
                    "--sk-out", str(sk), "--pk-out", str(pk))
    assert code == 0 and out[0]["seed"] == SEED_A
    assert sk.stat().st_size == 32 and pk.stat().st_size == 96

    code, out = run(capsys, "sign", "--sk", str(sk), "--msg", "hi there",
                    "--sig-out", str(sig))
    assert code == 0 and sig.stat().st_size == 48

    code, out = run(capsys, "verify", "--pk", str(pk), "--msg", "hi there",
                    "--sig", str(sig))
    assert code == 0 and out[0] == {"verified": True}

    code, out = run(capsys, "verify", "--pk", str(pk), "--msg", "hi there!",
                    "--sig", str(sig))
    assert code == 1 and out[0]["verified"] is False


def test_verify_rejects_malformed_signature_file(tmp_path, capsys):
    sk = tmp_path / "a.sk"
    pk = tmp_path / "a.pk"
    bad = tmp_path / "bad.sig"
    run(capsys, "keygen", "--seed", SEED_A,
        "--sk-out", str(sk), "--pk-out", str(pk))
    bad.write_bytes(b"\xff" * 48)
    code, out = run(capsys, "verify", "--pk", str(pk), "--msg", "x",
                    "--sig", str(bad))
    assert code == 1
    assert out[0]["verified"] is False and "reason" in out[0]


@pytest.fixture(scope="module")
def real_pk_sig():
    e = Engine()
    sk, pk = keygen(e, CsprngState(bytes.fromhex(SEED_A)))
    return pk.to_bytes(), sign(e, sk, b"x").to_bytes()


@settings(max_examples=12, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_on_random_files_exits_1_or_2_with_one_json_line(
        tmp_path, capsys, real_pk_sig, wire_input, data):
    pk_bytes, sig_bytes = real_pk_sig
    files = {name: tmp_path / name for name in ("pk1", "pk2", "sig")}
    files["pk1"].write_bytes(wire_input(data, [pk_bytes]))
    files["pk2"].write_bytes(wire_input(data, [pk_bytes]))
    files["sig"].write_bytes(wire_input(data, [sig_bytes]))
    for argv in (("verify", "--pk", files["pk1"], "--msg", "y"),
                 ("aggregate-verify", "--pk", files["pk1"], "--msg", "y",
                  "--pk", files["pk2"], "--msg", "z")):
        code = main([str(a) for a in argv] + ["--sig", str(files["sig"])])
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert code in (1, 2)
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


def test_aggregate_lifecycle(tmp_path, capsys):
    files = {}
    for name, seed in (("a", SEED_A), ("b", SEED_B)):
        files[name] = {k: tmp_path / f"{name}.{k}" for k in ("sk", "pk", "sig")}
        run(capsys, "keygen", "--seed", seed,
            "--sk-out", str(files[name]["sk"]),
            "--pk-out", str(files[name]["pk"]))
        run(capsys, "sign", "--sk", str(files[name]["sk"]),
            "--msg", f"msg from {name}", "--sig-out", str(files[name]["sig"]))
    agg = tmp_path / "agg.sig"
    code, out = run(capsys, "aggregate", "--sig", str(files["a"]["sig"]),
                    "--sig", str(files["b"]["sig"]), "--out", str(agg))
    assert code == 0 and out[0]["aggregated"] == 2

    code, out = run(capsys, "aggregate-verify",
                    "--pk", str(files["a"]["pk"]), "--msg", "msg from a",
                    "--pk", str(files["b"]["pk"]), "--msg", "msg from b",
                    "--sig", str(agg))
    assert code == 0 and out[0]["verified"] is True

    code, out = run(capsys, "aggregate-verify",
                    "--pk", str(files["b"]["pk"]), "--msg", "msg from a",
                    "--pk", str(files["a"]["pk"]), "--msg", "msg from b",
                    "--sig", str(agg))
    assert code == 1 and out[0]["verified"] is False


def test_msg_file_input(tmp_path, capsys):
    sk, pk, sig = (tmp_path / n for n in ("k.sk", "k.pk", "k.sig"))
    mfile = tmp_path / "payload.bin"
    mfile.write_bytes(bytes(range(256)))
    run(capsys, "keygen", "--seed", SEED_A, "--sk-out", str(sk),
        "--pk-out", str(pk))
    code, _ = run(capsys, "sign", "--sk", str(sk), "--msg-file", str(mfile),
                  "--sig-out", str(sig))
    assert code == 0
    code, out = run(capsys, "verify", "--pk", str(pk),
                    "--msg-file", str(mfile), "--sig", str(sig))
    assert code == 0 and out[0]["verified"] is True


def test_bench_reproducible_with_seed(capsys):
    code, first = run(capsys, "bench", "--op", "ecsm-g1", "--seed", SEED_A)
    assert code == 0
    code, second = run(capsys, "bench", "--op", "ecsm-g1", "--seed", SEED_A)
    assert code == 0
    a, b = first[0], second[0]
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b
    assert a["m1_equivalent"] == 5455
    assert a["seed"] == SEED_A


def test_bench_emits_seed_when_unseeded(capsys):
    code, out = run(capsys, "bench", "--op", "ecsm-jubjub")
    assert code == 0
    assert len(out[0]["seed"]) == 64


def test_sweep_matches_cost_model(capsys):
    code, rows = run(capsys, "sweep")
    assert code == 0
    by_w = {r["word_size"]: r for r in rows}
    for w in EXECUTABLE_WORD_SIZES:
        wm, wa = cios_cost_model(w)
        assert by_w[w]["measured"] is True
        assert by_w[w]["word_mul_measured"] == wm
        assert by_w[w]["word_add_measured"] == wa
        assert by_w[w]["word_mul_per_mont_mul"] == wm
    assert not by_w[24]["measured"]


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _ = run(capsys, "bench", "--op", "no-such-op")
    assert code == 2
    code, _ = run(capsys, "sweep", "--word-sizes", "17")
    assert code == 2
    code, _ = run(capsys, "sign", "--sk", str(tmp_path / "missing.sk"),
                  "--msg", "x", "--sig-out", str(tmp_path / "o.sig"))
    assert code == 2


@pytest.mark.parametrize("op", ["multipairing:0:naive", "multipairing:2:bogus",
                                "ipe:x:plain", "multipairing:2"])
def test_bench_rejects_malformed_sized_ops(capsys, op):
    code, _ = run(capsys, "bench", "--op", op)
    assert code == 2


def test_bench_hardened_ecsm_overhead():
    r = run_bench("hardened-ecsm", 64, b"\x33" * 32)
    assert r["m1_equivalent"] == 5725
    assert r["baseline_m1_equivalent"] == 5455
    assert r["overhead_ratio"] <= 1.15


def test_bench_ipe_split_scalar():
    r = run_bench("ipe:1:splitscalar", 64, b"\x33" * 32)
    assert r["m1_equivalent"] == 8090
    assert r["values_agree"] is True


def test_human_output_is_not_json(capsys):
    code = main(["sweep", "--word-sizes", "64", "--human"])
    out = capsys.readouterr().out
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.splitlines()[0])


def test_selftest_passes_and_fault_injection_fails(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    summary = out[-1]
    assert summary["failures"] == 0 and summary["suites"] >= 12
    assert all(o["ok"] for o in out[:-1])

    code, out = run(capsys, "selftest", "--inject-fault")
    assert code == 3
    assert out[-1]["failures"] > 0
