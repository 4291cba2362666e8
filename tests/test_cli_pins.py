"""Byte-stability of every command's output.

Each case runs one command line on corpus inputs and pins its exit code
and the SHA-256 of its stdout, with the package directory replaced by
``<pkg>`` as in `tests/test_report_stability.py`.  The report commands run
in text and in JSON; ``induce`` and ``lift`` print JSON only; every
``--help`` is pinned at a fixed terminal width.
"""

import hashlib
from importlib.resources import files

import pytest
from click.testing import CliRunner

from dendrikit.cli import REPRODUCERS, main

PKG = str(files("dendrikit"))


def _c(name: str) -> str:
    return f"{PKG}/corpus/{name}"


D, DB, Q = _c("ex-D-alg-iii.json"), _c("ex-dendind-bialgebra.json"), _c("perm-quadratic.json")
PL, DO, RB = _c("prelie-ooperator.json"), _c("dendriform-ooperator.json"), _c(
    "assoc-truncated-rb.json")
R_FILES = {"e1e1": _c("r-e1e1.json"), "b1g1": _c("r-beta1-gamma1.json"),
           "b0g1": _c("r-beta0-gamma1.json"), "non": _c("r-nonsolution.json")}
CORPUS_FILES = sorted(p.name for p in (files("dendrikit") / "corpus").iterdir())

# Commands that print a report, each run with --format text and json.
REPORTS = {
    **{f"check/{name}": ("check", _c(name)) for name in CORPUS_FILES},
    **{f"ybe/dybe/{r}": ("ybe", "--eq", "dybe", "--algebra", D, "--r", path)
       for r, path in R_FILES.items()},
    "ybe/plybe/e1e1": ("ybe", "--eq", "plybe", "--algebra", PL, "--r", R_FILES["e1e1"]),
    "ybe/kind-mismatch": ("ybe", "--eq", "cybe", "--algebra", D, "--r", R_FILES["e1e1"]),
    "invariance/prelie": ("invariance", "--algebra", PL, "--r", R_FILES["e1e1"]),
    "invariance/dendriform": ("invariance", "--algebra", D, "--r", R_FILES["e1e1"]),
    "invariance/dendriform-b1g1": ("invariance", "--algebra", DO, "--r", R_FILES["b1g1"]),
    "invariance/perm": ("invariance", "--algebra", Q, "--r", R_FILES["e1e1"]),
    "ooperator/prelie": ("ooperator", "--spec", PL),
    "ooperator/dendriform": ("ooperator", "--spec", DO),
    "ooperator/assoc": ("ooperator", "--spec", RB),
    "ooperator/no-matrix": ("ooperator", "--spec", D),
    "square/algebra": ("square", "--dendriform", D, "--qperm", Q),
    "square/bialgebra-file": ("square", "--dendriform", DB, "--qperm", Q),
    "square/bialgebra": ("square", "--dendriform", DB, "--qperm", Q, "--bialgebra"),
    "square/bialgebra-no-coproducts": ("square", "--dendriform", D, "--qperm", Q,
                                       "--bialgebra"),
    "affine/assoc": ("affine", "--dendriform", D, "--check", "assoc"),
    "affine/assoc-N3": ("affine", "--dendriform", DB, "--window", "3", "--check", "assoc"),
    "affine/coalg": ("affine", "--dendriform", DB, "--window", "2", "--check", "coalg"),
    "affine/asi": ("affine", "--check", "asi", "--dendriform", DB),
    "affine/coalg-no-coproducts": ("affine", "--dendriform", D, "--check", "coalg"),
    **{f"reproduce/{ex}": ("reproduce", ex) for ex in sorted(REPRODUCERS)},
}

# Commands that print a structure as JSON.
STRUCTURES = {
    "induce/prelie": ("induce", "--construction", "prelie", "--algebra", D),
    "induce/assoc": ("induce", "--construction", "assoc", "--algebra", DB),
    "induce/commutator": ("induce", "--construction", "commutator", "--algebra", RB),
    "induce/tensor-lie": ("induce", "--construction", "tensor-lie", "--algebra", PL,
                          "--perm", Q),
    "induce/tensor-assoc": ("induce", "--construction", "tensor-assoc", "--algebra", D,
                            "--perm", Q),
    "induce/lie-bialgebra-no-coproducts": ("induce", "--construction", "lie-bialgebra",
                                           "--algebra", PL, "--perm", Q),
    "induce/asi-bialgebra": ("induce", "--construction", "asi-bialgebra", "--algebra", DB,
                             "--perm", Q),
    "lift/e1e1": ("lift", "--r", R_FILES["e1e1"], "--qperm", Q),
    "lift/b1g1": ("lift", "--r", R_FILES["b1g1"], "--qperm", Q),
}

HELP = {"help/main": ("--help",),
        **{f"help/{name}": (name, "--help") for name in sorted(main.commands)}}

CASES = {
    **{f"{case}/{fmt}": (*args, "--format", fmt)
       for case, args in REPORTS.items() for fmt in ("text", "json")},
    **STRUCTURES,
    **HELP,
}

# case id -> (exit code, SHA-256 of stdout), recorded before the command
# line was restated as tables.
PINS = {
    "affine/asi/json": (0, "f7015d5f70a628e3a05e61e168bff80ed9fc984df63e8fa4e51ee9cf28201b1e"),
    "affine/asi/text": (0, "84a09c646c018b5f0f06a6e6df322a70887db3dd67db1c6b5d29f8a72e95acf6"),
    "affine/assoc-N3/json": (0, "879ed29e97757dbee31ba3ded2e257efbb8ee0eb0a0e4b68f6575a745cde2397"),
    "affine/assoc-N3/text": (0, "54874bf074c00edbcae943782945c85a59e9e2b807515d6849033aebe529a409"),
    "affine/assoc/json": (0, "4b451663516151a34c5c01a29cad92f2dd9fb14ef17a4d9049886bf23725d3d5"),
    "affine/assoc/text": (0, "64181cb90e3728769df9e185cbb370debbe14d700d9c9fc3ecffc019bf3b582d"),
    "affine/coalg-no-coproducts/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "affine/coalg-no-coproducts/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "affine/coalg/json": (0, "2f926f5570542956e417edf68cc66b753b5d1d0a6101c75bf8b785ba78597c44"),
    "affine/coalg/text": (0, "897ce43fe9e6d0b19e9c03da84c082607fca18428899376c9e7b960481407244"),
    "check/assoc-truncated-rb.json/json": (0, "7ae3200130f8bac39f5a671a52144d81a738cf19242f3623366aa6ec88b2be9b"),
    "check/assoc-truncated-rb.json/text": (0, "a5cda79fd2de88f48e46ac60df7fda7fa9ec07dd3e22bc456c34d916471409d9"),
    "check/dendriform-ooperator.json/json": (0, "45faace0b4844e7eb8efb10f258aad88c76e8e3c84326a30f2aebcc0fcab40a5"),
    "check/dendriform-ooperator.json/text": (0, "cf867cf4893adafc86945b5d8483a0f5b167dd46a6d490e461ad5431bef3604b"),
    "check/ex-D-alg-iii.json/json": (0, "2ef61474df8aac750bc15661546c74fb9012dc54502b74dbfa0a985d2ded0678"),
    "check/ex-D-alg-iii.json/text": (0, "57794305dca0e0ee4aca316b2c36498094738b57f70b4087cd723557f2fc9c19"),
    "check/ex-dendind-bialgebra.json/json": (0, "7cfb68b4e5903b80517659dda1f4f598918a9fd4f98250711d75548cd33b6c27"),
    "check/ex-dendind-bialgebra.json/text": (0, "892bd00067db891d72795dc49aa056d14c00522d8a673af68459160775e4ce80"),
    "check/perm-quadratic.json/json": (0, "82a23d6fcbd8ed4bda067ffcac089efa09afde9439e9ed055c194193010dc05f"),
    "check/perm-quadratic.json/text": (0, "be70af830088f63af3f22304c3a48dc2d0de860ec5869bfe6badd23996860940"),
    "check/prelie-ooperator.json/json": (0, "84a7224803a88eee46223a17c9860ec30c337a1caa2f31a60844cef63cf9b702"),
    "check/prelie-ooperator.json/text": (0, "e2ea07ee9555bacc43ee2a7080a5e57f0d9fe927ac38cf21b0f401511fee9728"),
    "check/r-beta0-gamma1.json/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/r-beta0-gamma1.json/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/r-beta1-gamma1.json/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/r-beta1-gamma1.json/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/r-e1e1.json/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/r-e1e1.json/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/r-nonsolution.json/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/r-nonsolution.json/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "help/affine": (0, "b055526d24dab66ed1ef93653bf0fc9ad5167730e4af62d9797b121ea241b09c"),
    "help/check": (0, "d885c90bc0a1ba9034e4bb74fed90d4e747aa5f50fe710c2781fff1f37e91b7f"),
    "help/induce": (0, "aff77f2f4ba84921681904ce0b894d44d8dfa31442c3a7964a4590133f2a6972"),
    "help/invariance": (0, "929fd2594118cfde727dbfd9ccc69593bfffc9d71fcc93baafd00e407b1e5d24"),
    "help/lift": (0, "dd26e923e0c7326ebf91289f265935007c8473fb201d7e99cfcfad00ae7312c4"),
    "help/main": (0, "a6b744400ef8f5a6c020e19d936ac96c881891f0412c39a523156a5310eeb870"),
    "help/ooperator": (0, "38075bbbc8178fbcd43f6d77967797ab7acb6f72f49c402596c2d03eacb5df54"),
    "help/reproduce": (0, "82443f68941931c8edfad663fda6883781c90189b66aeb14d3031e19c3961844"),
    "help/square": (0, "91dc958a931251710a61f584843d96369b065590af4db26490f3ffd2116857a3"),
    "help/ybe": (0, "9b3d32b386d4d0c5c5c9a942da2b29eb785e6af7f840ddf64885d67cb6e3ee39"),
    "induce/asi-bialgebra": (0, "36bcfa21f2f43876d5b233baedfb5880bfb55b91c62dc2591afdb62d63d73470"),
    "induce/assoc": (0, "15f844e30623405a67be149f5e85e886e8ed3db524c674383d15c996166f1d61"),
    "induce/commutator": (0, "4d4f0912d371edd26625dbcad931335c27832db4c7c5848e77619deb5f1a48ca"),
    "induce/lie-bialgebra-no-coproducts": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "induce/prelie": (0, "2fba79778375c495fc2cbe7dd865caef203234d54a2dee36ed169a65c37eb020"),
    "induce/tensor-assoc": (0, "d44b04c34caed92c008e1c1c3f4a0df6ad121ea5969970e74988214bb0d71ebd"),
    "induce/tensor-lie": (0, "dcbc836642053a5cd34dce3dcd87c80bdce66dbc2f4bfc30a4d3d82dbf0e3d7c"),
    "invariance/dendriform-b1g1/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "invariance/dendriform-b1g1/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "invariance/dendriform/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "invariance/dendriform/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "invariance/perm/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "invariance/perm/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "invariance/prelie/json": (1, "c7d37089531bf78aad01d0a976302c864538301e79ae5cf2948ce6a840b7da2e"),
    "invariance/prelie/text": (1, "1af1863dc2e8dab88679f60e6dac05d3db39a71cb641aa1b8be05845a34c61e5"),
    "lift/b1g1": (0, "be3146868cd52fca1d67bc4c94e50361d9601a77e25f42e50bf2f7cc306b85b6"),
    "lift/e1e1": (0, "f9c60fffc64e4251dd652a3ccba3b063f66f9e35b94808fe8e33d910d8069625"),
    "ooperator/assoc/json": (1, "fff0c18b664db48f21dca0faa55e27feb2093122dbf85424267cb9e053d3b482"),
    "ooperator/assoc/text": (1, "54a296e5aa2f10865cb8da1c0d39fa20803e5584137efab7fb00d5518594f4a5"),
    "ooperator/dendriform/json": (0, "186bd0e0bb18a0dc13bb82374ca9b9b4c6c3bb7dd7f25e5240880a8aba583537"),
    "ooperator/dendriform/text": (0, "e188a8e9dd2b9241ce79c740b7ae9d26039fab914289c52683f28d81bb781efc"),
    "ooperator/no-matrix/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ooperator/no-matrix/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ooperator/prelie/json": (0, "2179b05a4feb10c6df709518433756401f668cd5b5efc6a18ff01d0e0339dae5"),
    "ooperator/prelie/text": (0, "6ae0950b1d828c28014e1cc82463682b54f908dc3421181d0bca8742f3af9e4b"),
    "reproduce/ex-2.13/json": (0, "2d811cfaf22a5c0bc8649a6a99be869ee33feae02f08e885d9718d6a3748a0a2"),
    "reproduce/ex-2.13/text": (0, "acb8d4feaa0f657a9a5b63399e7d051cac1cdcc1b2ba17f3a27c9cb241c488d1"),
    "reproduce/ex-2.2/json": (0, "c988cbefc1ab83028ac17291dbd741fb5bc713789754766e27ed7447cc3190cf"),
    "reproduce/ex-2.2/text": (0, "fbb999c471db271d619d46ee5e5b67373fb7fd710bea5980f4ee2645d834c0bc"),
    "reproduce/ex-3.13/json": (0, "06929ad6ef28230765837f1a48a2d00014c64a2b6401ed5e1ba095014b424070"),
    "reproduce/ex-3.13/text": (0, "39280ccad5ac7532c47fede680d143d00f75c17822932c1bd10b87a63b64eb82"),
    "reproduce/ex-4.2/json": (0, "398c8ab5614c894476a9c2dd2ed004460c24efbd674f3f30841cb097c2c593ed"),
    "reproduce/ex-4.2/text": (0, "df487c26110e3903854ced199e9c8439f37c1d5fe5dd502138e58db8e7b4ac44"),
    "reproduce/ex-4.27/json": (0, "64ca814925f475cfcdcf1fa60c93c1fa250d539c4d1764d740dcee2845d06dc0"),
    "reproduce/ex-4.27/text": (0, "a7cbc9af577c9f5bddbf3f70cafa4ca3f5038f0fe0bd91e130fac239654515ea"),
    "reproduce/ex-4.5/json": (0, "068d4ee5372d203afdefc1e4e9ba64513ae9278b65041c23d5a533984ef8d555"),
    "reproduce/ex-4.5/text": (0, "23957bb281743f37dfb64415ec9e1d3831dc347f620cf8b7c5f06c96c9b76828"),
    "reproduce/ex-4.9/json": (0, "7efccac7fbd88fcce6a3d08bfcdef7a793d74c85eb1f7c83f1f3d791a72b4cae"),
    "reproduce/ex-4.9/text": (0, "156256eaa7b2615a1035c621818476b079a628138f1750845cec280e3d9174a3"),
    "reproduce/ex-5.13/json": (0, "e9f79b37b9db5224a727d7c1ecb1abf1c52fde9e3a6fecb140397b0484c0dd23"),
    "reproduce/ex-5.13/text": (0, "58c37014c2fa5b81323981acfaabc83dcd8b2b6aedf8dfd121be8cf4470ec3a7"),
    "square/algebra/json": (0, "26c9688ab061aa71faaf5aed66632599657843c62344dadb1d94f67c6f361310"),
    "square/algebra/text": (0, "676ad661453833f521d7f21c3ce8e4127d952f9e50bcd84d64844997a7df4344"),
    "square/bialgebra-file/json": (0, "ecf6d9915a6525215b38d1ce8823ec5809e8b25c9620effc0c98bdc62dedb4c6"),
    "square/bialgebra-file/text": (0, "9f009f8f67754db303f6ba2daf7dfb895cfcc20d8f4e53421dd67e71bf645579"),
    "square/bialgebra-no-coproducts/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "square/bialgebra-no-coproducts/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "square/bialgebra/json": (0, "dc072248ff4bafe12c967fefa2ff4a5cfacb91a2cdac80b924574e31d7b2f98e"),
    "square/bialgebra/text": (0, "5e953f1edda602091e6d62e1ad8b4644a1033f011ef6e17c4c5cb2ff257c3fb8"),
    "ybe/dybe/b0g1/json": (0, "17dabee6c3340d58a9910e965a260f877a7ad4c8557a462fc976a0eae529bb9c"),
    "ybe/dybe/b0g1/text": (0, "b2edae768bd5dc19520d306f1ffcda36f13b339c5d959c921930fe5ab5891cc9"),
    "ybe/dybe/b1g1/json": (0, "5317b90fa354dd6d38e9f21927f3f4029dc1f3bb8fdb16db6bf21817e58df058"),
    "ybe/dybe/b1g1/text": (0, "e7c778ed529f9af35dcac3f3c14552146b8ddee4aa5483cc34cee4e463544549"),
    "ybe/dybe/e1e1/json": (0, "17ed658d78ad17a5935c43c8acae7b67243c403c5927ea1e055985a575104bfb"),
    "ybe/dybe/e1e1/text": (0, "987b7f787e9901b059d61b75a861b0ea565153f1db452aa98a0ce0763d6caac7"),
    "ybe/dybe/non/json": (1, "256ded6c123913c8c88c1aea9fa88071c80f2b96c5159f2786ea528e63b1923b"),
    "ybe/dybe/non/text": (1, "5142c186999609037a757fc5e6c3ddfae6d82321445626d533b2e567fc6bc9e6"),
    "ybe/kind-mismatch/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ybe/kind-mismatch/text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ybe/plybe/e1e1/json": (0, "82f460c2e11dc9aebfcfb4e77bfc51c2f399f7d19006ca6de9e5b56d195c5dc0"),
    "ybe/plybe/e1e1/text": (0, "98b1345759c938451047dba2203414f6c3b63dcd376b7b2d664f8a1470ad6a6e"),
}


def run(args):
    res = CliRunner().invoke(main, list(args), prog_name="dendrikit", terminal_width=80)
    text = res.stdout.replace(PKG, "<pkg>")
    return res.exit_code, hashlib.sha256(text.encode()).hexdigest()


def test_every_case_is_pinned_and_every_command_covered():
    assert set(PINS) == set(CASES)
    for command in main.commands:
        assert any(args[0] == command for case, args in CASES.items()
                   if not case.startswith("help/")), command


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_output_is_byte_stable(case):
    assert run(CASES[case]) == PINS[case]
