"""Byte-identity pins for seeded commands.

Each command runs through `ccgeo.cli.main`; the sha256 of its stdout and
its exit code are pinned.  The commands pass through the RK4 integrators,
the subset-determinant scans, the grid builders, the shooting search and
both kinds of scaling map with their sandwich check and Newton inversion,
so a refactor of any of them that moves one digit of a report shows here.
"""
import contextlib
import hashlib
import io

import pytest

from ccgeo.cli import main

GOLDEN = {
    "check heisenberg": (0, "d4f97ac04d7059b10cb83f308505a5ea370c3a9a5d831ed68ca65ca989cb8380"),
    "ball grushin_straightened --x 0.5 0.0 --delta 0.2 --samples 200": (
        0, "a8b61838f24431798b9aeed4882efd6d1df55da1b9382927eb90ce7a47d7ce88"),
    "volume elliptic --x 0.0 0.5 --delta 0.1 --samples 2000": (
        0, "cbacd36865e4cb2bc74bd3e2a65de80486b52ed3814854b0799de0fe60037213"),
    "volume grushin --x 0.5 0.0 --delta 0.1 --samples 2000": (
        0, "8df3ab9c16ce69ae39e107595f61f661387ad934b1f765c8afc059ede67d8ac5"),
    "volume heisenberg --x 0.0 0.0 0.5 --delta 0.1 --samples 2000": (
        0, "fd43c17ac59cf4e82a734997c023516d996e3264ec806f060046fadf65f99e7a"),
    "scale grushin_straightened --x 0.5 0.0 --delta 0.1": (
        0, "0edd5213a37bcd3560bde3e441630a4a32a4e147f099f17fe9313977b4debc62"),
    "scale heisenberg --x 0.0 0.0 0.5 --delta 0.1": (
        0, "2499b70f3ee9c267f73eafbe5476497d852bfd27136decd46eb16b9bc618dd68"),
    "scale degenerate --x 0.5 0.0 --delta 0.1": (
        0, "d11e44755d264252af496d393603523b1373757a88b83088fa69ce22e6f26f0c"),
    "boundary grushin_straightened --x 0.5 0.0": (
        0, "0989c430ef1cfc8a67132b4ba1da4f7248e488a032cd90d9e4879dc57841e58f"),
    "dist grushin --x 0.5 0.0 --y 0.55 0.06 --K 4 --oracle": (
        2, "455238601d4b57639e8cd05ac93e0fff90a0e7dcddc16fa76b6fbc3e4879978a"),
    "dist elliptic --x -0.338784 0.008075 --y -0.041309 0.019601 --mode extrinsic --K 4": (
        0, "b61e499bf6b79769a47b5b64eff35963d61903a983fe6c3112e6ef819b46aea6"),
    "dist grushin_straightened --x -0.400211 0.051411 --y -0.339501 0.091318 --K 4": (
        0, "0e238b96e881d8b9da3276a3ee62a4251920c7457ba55bb9f11b5e0c8a9a3e31"),
    "verify elliptic --suite sandwich": (
        0, "1359f44669b60175fb316d6521d822f2cce8957bf5916621410b36616b0e6848"),
    "verify grushin_straightened --suite sandwich": (
        0, "170495ddb016ec5b157494b05d1af00dcc38983387b8b9092dcd59d5a3145fca"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split())
    assert (code, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == GOLDEN[command]
