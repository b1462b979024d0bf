"""Byte-identity pins for seeded commands.

Each command runs through `ccgeo.cli.main`; the sha256 of its stdout and
its exit code are pinned.  The commands pass through the RK4 integrators,
the subset-determinant scans, the grid builders, the shooting search and
both kinds of scaling map with their sandwich check and Newton inversion,
the boundary system and its metric, and the Monte-Carlo doubling check,
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
    "scale heisenberg --x 0.0 0.0 0.0 --delta 0.1": (
        0, "fc7f0e11bee6b1434006d7f3b9bb3aab6ccc3ba6db53daa6079dbe55c215c395"),
    "scale degenerate --x 0.5 0.0 --delta 0.1": (
        0, "d11e44755d264252af496d393603523b1373757a88b83088fa69ce22e6f26f0c"),
    "boundary grushin_straightened --x 0.5 0.0": (
        0, "9ddc382ae018b7601ceed7324b82e77c9b617789d017ed3b93c365f77ac9e97e"),
    "boundary heat --x 0.2 0.0": (
        0, "36ea855ed01ecfa21235c929f91844a261e23d03df89fd9c4e5d904fcc86af6b"),
    "boundary heisenberg --x 0.0 0.0 0.0": (
        0, "7a6157d39fdc5449b48bf3e77fcf49790146dfdb135da94a7e6e0584802fd766"),
    "check degenerate": (
        2, "d3c6e9e60443ee709ba8bab3ddca27b61fa2f285088d2400e99a56b4b99c0d45"),
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
    "verify grushin --suite equivalence": (
        0, "aebf913aee472c842d5ec409da194aa732fc70d87bce1d0307742b4a47873c09"),
    "verify grushin_straightened --suite boundary-metric": (
        0, "efebdd71e6d72a3bf75b41b4d9a22c066852b13d9a3d3bfc98bdd831d29a322f"),
    "verify grushin --suite volume": (
        0, "3e8b163241bee5c8393841f2462571a9c68eac859dc4715e1ff096ef0d09d125"),
    "verify heat --suite doubling": (
        0, "4ed04ae2790b663df2503c307a95242f58b98cef5337c2dd570f078ad18325ae"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split())
    assert (code, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == GOLDEN[command]
