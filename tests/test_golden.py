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
        0, "e2bfa8289e13d6e4a387d0a0a688937f730a255dca6c6fa009c29982af44c3ca"),
    "volume heisenberg --x 0.0 0.0 0.5 --delta 0.1 --samples 2000": (
        0, "1f2164a448e53b69ba89dabfac33906cd593cf8c3da37a878fa0b5d5ad8afccf"),
    "scale grushin_straightened --x 0.5 0.0 --delta 0.1": (
        0, "c3bcad14e6a57a9e9071618f8be6d81f37b79d41a87952db7c2926a245e8bfa0"),
    "scale heisenberg --x 0.0 0.0 0.5 --delta 0.1": (
        0, "67cb3165bcc2120de57f713c361776350a18ee3d27f5c31bc790abb2e5760eda"),
    "scale heisenberg --x 0.0 0.0 0.0 --delta 0.1": (
        0, "8297936fc495db421d2417b2e4629aa83d94916c2db049b298e85861b05aa260"),
    "scale degenerate --x 0.5 0.0 --delta 0.1": (
        0, "60f5a8fef3a50db93c61b3a10773c2c96e6d6321fc3fb116d85cac6af624a656"),
    "boundary grushin_straightened --x 0.5 0.0": (
        0, "9ddc382ae018b7601ceed7324b82e77c9b617789d017ed3b93c365f77ac9e97e"),
    "boundary heat --x 0.2 0.0": (
        0, "36ea855ed01ecfa21235c929f91844a261e23d03df89fd9c4e5d904fcc86af6b"),
    "boundary heisenberg --x 0.0 0.0 0.0": (
        0, "7a6157d39fdc5449b48bf3e77fcf49790146dfdb135da94a7e6e0584802fd766"),
    "check degenerate": (
        2, "d3c6e9e60443ee709ba8bab3ddca27b61fa2f285088d2400e99a56b4b99c0d45"),
    "dist grushin --x 0.5 0.0 --y 0.55 0.06 --K 4 --oracle": (
        2, "8560a02fd02d4725e29d1eaf400c6ac0c16ddb3f115ba1a57052034812d75cc9"),
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
        0, "b3cb4fe976a10fdf556c2672d397ec9524bbc06117657b9bf25bc3985da571fe"),
    "verify heat --suite doubling": (
        0, "c4156aa7f4cfedfc3ad4162918e7f42427c5a4da10c6b1f79df360ab43c2abad"),
    "verify elliptic --suite topology": (
        0, "8ce424177faba2bec0afade5f660cde3fe803bc91366aaafe0187221945c856a"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split())
    assert (code, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == GOLDEN[command]
