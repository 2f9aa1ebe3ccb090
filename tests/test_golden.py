"""Golden reports: the sha256 of the JSON report of each of a fixed list of
CLI runs.

A change that keeps behaviour keeps every digest.  A change that alters a
report on purpose updates the digest here and says why.  Monoids given by
name in `--in` are written to a temporary Cayley file first, so the input
digest inside the report is the digest of `dump_cayley`'s bytes.
"""

import hashlib

import pytest

import factorbench as fb
from factorbench.cli import main
from factorbench.core import dump_cayley

FILE_INPUTS = {
    "P(C3)": lambda: fb.build_reduced_power_monoid(fb.cyclic(3)).result,
    "P(C5)": lambda: fb.build_reduced_power_monoid(fb.cyclic(5)).result,
    "N3xC2": lambda: fb.direct_product(fb.null_monoid(1), fb.cyclic(2)),
}

GOLDEN = {
    "analyze --null 1": "1938610e8ee22eb25d0f56bd1e63229bb0fe732caa9ca1c7cd3dd8686029af55",
    "analyze --null 2": "e4ef788115af3d4450e5629cf7c0977781fdab9ddb350819fe41c84497507411",
    "analyze --two-zero": "19f34fca3a43e6b52a70a7194df3413d97e659e1a104b01687bd1e6cdd9e85dc",
    "analyze --cyclic 5": "b8358508c2dd62b8c3f04364cac7031f4883d87a36b1c06adeddd70b90f05def",
    "analyze --full-transformation 2": "0823b92287eac24e1191c405faf431467d7a83f2a47bd599acbe6daee1c900b5",
    "analyze --gl 2 2": "f4c75c566a9a3d2d0fbfb4d68e1b245d6c24a1bea936ddb27904b9676b8ad909",
    "analyze --in P(C3)": "114f2d83c6e42fcf864e4ef46e2ef1342f4487a1805a57e72122efae7c7ef816",
    "analyze --in P(C5)": "a83cc8884f9128c7fe077f77eae1d9efe8ac1df9e36a6203d7735309cda64c34",
    "analyze --in N3xC2": "a25ccf0f48e8fbb4c2d24fc4b39ff4b19a69ab71f9cd84f654dcfa30456281f7",
    "factorize 0 --null 1 --max-len 4": "cb12ab8258b3d68afbd32c9ef590947504c8157d7c6f223405bfd1b7c1e2e375",
    "powerset --cyclic 5": "e35f5f958398f4fc84af4433db299bc8e198073334b57f84b0509543bd346367",
    "ints --limit 2000 --prime-bound 50": "f53b453a012c7df29bb787877f3985d3c571bfe5e7868f44cfe9ca4758a05e8e",
    "corpus --max-order 2": "cdf16a71f734c076edb6437e0969df70894e4a346e67197b52880c6fdcad6e3d",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_digest(command, tmp_path, capsys):
    argv = command.split()
    for i, arg in enumerate(argv):
        if arg in FILE_INPUTS:
            path = tmp_path / "monoid.json"
            path.write_text(dump_cayley(FILE_INPUTS[arg]()), encoding="utf-8")
            argv[i] = str(path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]
