"""Golden reports: the sha256 of the JSON report of each of a fixed list of
CLI runs.

A change that keeps behaviour keeps every digest.  A change that alters a
report on purpose updates the digest here and says why.  Inputs given by
name in `--in` are written to a temporary file first: a monoid as the bytes
of `dump_cayley`, a presentation as the text given here, so the input digest
inside the report is the digest of those bytes.
"""

import hashlib

import pytest

import factorbench as fb
from factorbench.cli import main
from factorbench.core import dump_cayley

FILE_INPUTS = {
    "P(C3)": lambda: dump_cayley(fb.build_reduced_power_monoid(fb.cyclic(3))),
    "P(C5)": lambda: dump_cayley(fb.build_reduced_power_monoid(fb.cyclic(5))),
    "N3xC2": lambda: dump_cayley(fb.direct_product(fb.null_monoid(1), fb.cyclic(2))),
    "A1B2": lambda: "gens: a1 b2; rel: a1*a1 = b2*a1*a1*b2\n",
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
    "present adian --family sandwich-power --n 2": "23c3bcad488c1accfc7b73aff628c5c6ad06af63ec82909a52c6b100114658ec",
    "present nf y*x*y*z*w --family ladder": "6cf550c07db142c010cdde2bf4f75b1076efacf59e67c97f299a45cea3784429",
    "present nf e --family ladder": "00abb2adf4de1ac8343cc7fe58d0603a53a389bfe59c4de05283cb3c2acede58",
    "present congruent x*x y*x*x*y --family sandwich-power --n 2": "50e71ba6fa54ecdc9f12c6ab523bbd14f77017fc18ad484bc2ee5f935360d321",
    "present congruent x*x x*x*x --family sandwich-power --n 2": "6140da431089284be4e3f5f0fd6c3bbc5e4d2570e2826af18e396ecf66b828b2",
    "present congruent x*y y*x --family sandwich-power --n 1 --budget 500": "fcdd2cf0e2652f5529018f6d0e7df14f7b32ebad74eae3f12502913a3b2736d1",
    "present lengths x*z --family ladder --max-len 9": "f52e1fbd8bd5c54b347820151823798f85ea95a80a69d12e8d6d4e436b083be8",
    "present lengths x*y*x --family sandwich-xyx --max-len 9 --budget 300": "c2fd4b389d781df86ac013447b4220db313e473f1c3fdd99c0eecd3c9bb7a53b",
    "present verify --family ladder --samples 200 --seed 3": "e24b5454fe30bece2c1b74c1ad3e0e1cdc8da1cb8030254b808671c282bd5a43",
    "present congruent a1*a1 b2*a1*a1*b2 --in A1B2": "ecfd318d179e16a8aaa01c2e064e66711bfb1ad1207b5e159878951e6fbdb8b0",
    "present congruent y*x*x y*y*x*x --family sandwich-power --n 2": "77e09ef244355016c7a27d617ea2f438f16a466d4e8d4592133f65487f5a5ea1",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_digest(command, tmp_path, capsys):
    argv = command.split()
    for i, arg in enumerate(argv):
        if arg in FILE_INPUTS:
            path = tmp_path / "input"
            path.write_text(FILE_INPUTS[arg](), encoding="utf-8")
            argv[i] = str(path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]
