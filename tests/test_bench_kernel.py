import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_bench_kernel_one_repeat_prints_every_timing(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = tmp_path / "BENCH_test.json"
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "bench_kernel.py"), "--repeats", "1",
         "--out", str(out)],
        env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert json.loads(out.read_text()) == report
    assert report["repeats"] == 1
    for key in ("scalar_amplitude", "forced_257", "forced_offgrid",
                "l1_criterion06", "l1_crosscheck_m3",
                "hankel_eval", "series_m3", "lemma31_m3", "gamma_real",
                "eigendecompose_operator", "caputo_quadrature", "mode_ode_residual",
                "synthesize_block", "project_block", "lipschitz_diffusion"):
        assert report[key] >= 0.0, key
    assert sorted(report["propagator"], key=float) == ["0.001", "0.1", "2.0", "300.0"]
    blocks = [report["thm23_block_m2"], report["thm23_block_m3"], report["thm21_block"]]
    for entry in blocks + list(report["propagator"].values()):
        assert entry["ms"] >= 0.0
        assert 0.0 < entry["worst_rel_est"] <= 1e-10
    # The machine the numbers come from.
    assert report["nproc"] >= 1
    assert isinstance(report["blas"], str) and report["blas"]
    assert report["blas_threads"] == 1
    assert len(report["loadavg"]) == 3
    sha = report["git_sha"]
    assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)
