"""Golden digests: every artifact of five small CLI runs, byte for byte.

A change that is meant to leave the output alone must keep these sha256
values. The runs write to a relative ``--out`` because the summaries embed
the ``out`` path.
"""

import hashlib

import pytest

from solsurf.cli import main

GOLDEN = {
    "simulate_circle": (
        ["simulate", "--scenario", "traveling_circle", "--n", "33",
         "--steps", "8"], 0, {
            "series.csv": "faad65d3dd31a0e1a3250d984ca099059f9b927f73c27ae63c6506b9016e551b",
            "series.json": "ee172e52bd646abc3e3bb0a1b638254b4d2f2edc9c83e18cfa1484ce31c26ac9",
            "simulate_summary.json": "845721f3074200a4508ba85edbcac41785d584c859df6c23e98b9089bfcdb7ed",
        }),
    "surface_sphere": (
        ["surface", "--scenario", "sphere"], 0, {
            "curvature.csv": "c2b86629d3aaea927ffa54b2ffa51bce01e8429c0a7f105d1e8ba20c47cc3f8e",
            "mesh.csv": "7286b70749aa065b73dea2b626322e0e5dc42f6ad48ae4e3b71195da306e98e0",
            "mesh.json": "54c2e9f1b72561a9693405aa8909720b1311de7965212cea6b752d82d5b96330",
            "mesh.obj": "9f28783e4e9fa67b688274d401f83cc2d58ad888e464cc095ce9a18fefd66390",
            "surface_summary.json": "a47e7d0ac915adf2246888b34be1bc02df2674418117728404a6f63a140f8567",
        }),
    "surface_random_smooth": (
        ["surface", "--scenario", "random_smooth", "--n", "33", "--steps", "8"], 0, {
            "curvature.csv": "b704c647c3572064830bae12678e5e43b0102d4c28013fb92a271b553f27abab",
            "mesh.csv": "b017e5e7ac6fdb11c3c61f9f53a0f4b1dd802283ee61240a957f5750bd77ad9a",
            "mesh.json": "95b713041c4644b4715a94c9630fb58d420e38dc22d6264b532eabefc64826df",
            "mesh.obj": "3619a6683c42533482341ba1f94d06a969c5355f38ad4a82ed7c6d542a741aa6",
            "surface_summary.json": "a8c522fbad21c1db2665a9ac84036a42db843f1f62dd9109e75d9c6a077b72d0",
        }),
    "check_random_ct_lax": (
        ["check", "--scenario", "random_ct", "--which", "lax"], 1, {
            "check_lax.json": "960838c2ce95d42b21b7f8dbedd3ac487630b550d6324e3879ef0a69e92fe9a4",
            "residuals_lax.csv": "dafd48274aa605d9e52823c8a483654c2a54f699b35848c66b74aadaf9958831",
        }),
    "convergence_random_smooth": (
        ["convergence", "--scenario", "random_smooth", "--n", "33",
         "--steps", "8", "--levels", "3"], 0, {
            "convergence_torsion.json": "c5c272d5613dc0bb13ae068a1a734b222604ec8c2aa062e59c948f201323f192",
            "residuals_torsion.csv": "40c08b606ca1a8968c1968a12b5c74a88a17487f285503a1a5a6fe915ed8044d",
        }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digests(tmp_path, monkeypatch, capsys, name):
    argv, code, digests = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == code
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "out").iterdir())}
    assert written == digests
