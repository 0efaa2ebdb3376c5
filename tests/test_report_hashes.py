"""Pinned sha256 digests of suite reports.

Reports are pure functions of their arguments, and a change that only
simplifies how a suite reaches its verdicts must leave them byte for byte
as they were.  The digests below are of ``emit_report(verify(...), "json")``
with 6 trials at seed 1: every suite at 2x2; the suites whose 3x3 runs
take other paths (the PPT entangled fixtures in T13, T18 and C19, and C2
outside the dims where PPT is exact); and every suite of the benchmark's
harness at the dims it runs them (3x3, and 2x3 for C2), with L16, T1
and T12 at 3x3 as well.  A second table pins the suites whose checks read
a margin against the band (T6, T13, T18, L16, L17, C2 and C19) at a
coarse tol of 0.05, where the band is wide enough to matter.  A third
table pins the suites that evaluate all their trials as stacks (L5, L8,
L10, L15, L17 and T6) at 12 trials, both tols, 2x2 and 3x3, and 2x3 for
the suites that take non-square dims: 12 trials reach T6's cop and p
escape checks (trials 7 and 11), which 6 trials never run.  They were
recorded with numpy 2.4; a different LAPACK may move the last bits of a
reported value and with it a digest, so a mismatch there first calls for
a look at the report itself.
"""

import hashlib

import pytest

from mapcones.linalg import Dims
from mapcones.theorems import SUPPORTED_THEOREMS, emit_report, verify

TRIALS = 6
SEED = 1

DIGESTS = {
    ("C19", 2, 2): "3d8877c4ef35b690745152326d0dacaa850ab67781d8af6cab6d48dda5152012",
    ("C2", 2, 2): "0cb1f057cece0feb079b2a2d54bf40c53b38a116ee111e01c8e9842debb5a8db",
    ("L10", 2, 2): "4dfc5c6bc323b6aa28ce6e12d4a8bc632055c34cf8639f2cdac1cf7ecae5ad58",
    ("L15", 2, 2): "4b1c350bcde3b0cc2b70a273d775bb7138bae72b32894c6e4b816eaad6baa691",
    ("L16", 2, 2): "8a81725ea58da6ac334a66b495ff3da5e7bb3af48972dda5767c38ffaff82193",
    ("L17", 2, 2): "eecda15eebd2cc90d0e90ef090db990cd7d22dc35e7e6558737c9e1460edcb64",
    ("L4", 2, 2): "fc20f99c0f0565fc8bcf3bb203814cef5617f58995700b624fe0b760c9d4a90c",
    ("L5", 2, 2): "777991deb5e8039fe04e294cd32ea3fb337cdeb5124fcaad58310691f111ae46",
    ("L8", 2, 2): "4c73fedf5d683c324a8f40334c902440a3469a49ac89605761308f6e0b3f5191",
    ("T1", 2, 2): "a50cac0bf196d70d4765bf797ec6cb2e62302a9588d0c0f1a8c4499c59d22399",
    ("T12", 2, 2): "d6436a622b5d664ae12e305e435ce83cdffaddf1f7206f9ee9c44e8d8a7b9095",
    ("T13", 2, 2): "f2537ac25a210e7980d3d1ccb34215ac6a8c6e743852f4f64dccf99acc8325d6",
    ("T18", 2, 2): "a946488cb8ea71b603a61913844d279ca1690a7014e235ebe24bfbda3e7b6f4c",
    # T6's escape check runs on every fourth trial, its cone taken from its own
    # counter; an escape map inside its cone is not counted UNDECIDED
    ("T6", 2, 2): "ff0d36d4b449d8644fd6def14724df3ae9d462117a662620a4edcd040a42edb5",
    ("T13", 3, 3): "6d59c46a9326e49beb960ef1c8437fb2a56d7e19118ea7fac862acd9af0ee16e",
    ("T18", 3, 3): "d15fab811f80e8f4723f3e34ea17a3418d398f3523a72895296a86e52a4f9965",
    ("C19", 3, 3): "f5a0c972172e96fe30739a6803a5a2e7541f01e70e9e43753afbd8af13fda66e",
    ("C2", 3, 3): "cf1e010a8923c42ee77819f6820a3a1a0da2841009887612b7c0aa326be93791",
    ("L4", 3, 3): "63283e0fe1a23632591dc886f23bfd6aa95e2e890f6765d2f993f885725a6783",
    ("L5", 3, 3): "d0770482f9ebf0abcb0ce3abc1aaec7c70e8be16f0a8aea9b9cdf1cda19bdab2",
    ("L8", 3, 3): "fe60360a11773dedaefd7805f8fd90d708549a9f907194a6dc64db1573cd03f8",
    ("L10", 3, 3): "73cec2c6835d3af31bc5014d498921d3e3405a2adde25eb7dac4caa41dfc1d6b",
    ("L15", 3, 3): "9cc019bf66a756c408dab9814a7dc5d7dc14d815768a787d728b09dfbe4ab001",
    ("L17", 3, 3): "9adcede96be7f69896038d8eafcc9faf5299c37a73317f9d16a5cc32db5378a9",
    ("T6", 3, 3): "012672a51a26741b2c9e193cf73bc8d215990dad4553be5fdf9431e776ca63bc",
    ("C2", 2, 3): "68211459286d99841ccfa5a67c3f66cca028763f9c5f115184fd16fb3d895692",
    ("L16", 3, 3): "c1eb1082eb3674032f8f7f4242f956363f3d753c907295e88f88aac4940e0b35",
    ("T1", 3, 3): "0bcfb80e984b109cfdee2670f6a33db6fa825d8f30a80b1cabd3c6dea03127ed",
    ("T12", 3, 3): "9f92505e8df2c9534b2819fa32f1e5ff95c8fde645065c4b22d62c3890c5024b",
}

COARSE_TOL = 0.05

COARSE_DIGESTS = {
    # an escape map inside its cone is not counted UNDECIDED (T6 here and below)
    ("T6", 2, 2): "377f2fea96f9b200716b541d2d3d589198e750a5c4cc7bc79e691972e2c52738",
    ("T13", 2, 2): "a77615b12bcbc3b8960387ef83c5c18392fc5989fd066533ba72a32904857651",
    ("T18", 2, 2): "3cff61996d18c70f3d1c2046d7da279918e199f02f52ad6a49b2b03dfe2df83b",
    ("L16", 2, 2): "c042d3a2affbf8b2801242001631bb7d466cd6144e31740bff0ae30d29d51b1b",
    ("L17", 2, 2): "08a9848e837b01ed0e8dea396b63ccc1b0d2ff25e7735a2abc4cc79a972214ea",
    ("C2", 2, 2): "7d492dff9da6f4546dc2c2dd2997c192fce16b5fe0b2425db6239bf3efe8d001",
    # one trial left UNDECIDED before the e-cone bound read y0 + lambda_min(Z1) is decided now
    ("C19", 2, 2): "6648661d8ec8af3e73412ff688f20af6fd0338d3b4fdb998d4e78cd93f865d9d",
    ("T6", 3, 3): "0d6601d9750f6a7cc45859b5684f36af7c137f9df4b72ce93f56c2c9cb5a4430",
    ("T13", 3, 3): "5d44dfa34e92ef5d76f0da6a8549ca84b57e4e038437e485c8e5c8ad99fb4b61",
    ("T18", 3, 3): "6737dde439aefa2ecd3f38663d517ae403664ac9e3382d6db96ae0332412c89d",
    ("L16", 3, 3): "aa17b945edaa8fa5f89c4b3f4a09812f3fa72a26a9429c09578fd66b59184623",
    ("L17", 3, 3): "6aa175b1639d7949b9f96231de19975e956c7650e589348d6c8e75f2e3e90801",
    ("C2", 3, 3): "95f2f61c4bd86a6b066e015888f1970ec15ad406c166f8dd6fcc63884fa0e2d8",
    ("C19", 3, 3): "efe5129ac68c6c6576ea3132a926fa6bd901e5fe2fccbbc721094fc73a33698a",
}


def test_every_suite_pinned_at_2x2():
    assert {tid for tid, n, m in DIGESTS if (n, m) == (2, 2)} == set(SUPPORTED_THEOREMS)


@pytest.mark.parametrize("tid,n,m", sorted(DIGESTS), ids=lambda v: str(v))
def test_report_digest(tid, n, m):
    report = emit_report(verify(tid, Dims(n, m), TRIALS, SEED), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[(tid, n, m)]


@pytest.mark.parametrize("tid,n,m", sorted(COARSE_DIGESTS), ids=lambda v: str(v))
def test_report_digest_at_coarse_tol(tid, n, m):
    report = emit_report(verify(tid, Dims(n, m), TRIALS, SEED, COARSE_TOL), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == COARSE_DIGESTS[(tid, n, m)]


LONG_TRIALS = 12

LONG_DIGESTS = {
    # (suite, n, m, tol)
    ("L5", 2, 2, 1e-9): "8bfedc0005a46340251578d3d4f9a393b0a818d1b0b89e94034c19a64572c74f",
    ("L5", 3, 3, 1e-9): "94eafe908bb5eb1b7876940e5678412b47045bcd71eb00b010399651d1d7fd5a",
    ("L5", 2, 3, 1e-9): "f879abda384413e8fc9229a0d052e56f097c1f76e66d4c334a36c7800ec05dc8",
    ("L8", 2, 2, 1e-9): "9c20a2a840ca3b6b4b69b0ab67b1184093ed54df32a95d8ec7116e251842fb8e",
    ("L8", 3, 3, 1e-9): "acb86bda019467de1e29bea55059b20af09f240fd4963ce415f549f90d6178ef",
    ("L10", 2, 2, 1e-9): "b079c3836a7e36e43bbc26c3a1dc3b5677606e28d827ce218110116c72d4f02a",
    ("L10", 3, 3, 1e-9): "62579ebe11149f3f17100501b4a6b22c900775f8a5fa40eaec52299eaca2952d",
    ("L15", 2, 2, 1e-9): "55ee5e5e0843731cd9f3ed59efb8727e40a1e6c4deb375159cdf032be6347d9c",
    ("L15", 3, 3, 1e-9): "365f0bf172c3bce09d78a7ea0413ac2e6eff0c0720cc54ad6b065280b22dc71a",
    ("L15", 2, 3, 1e-9): "3bd4a6ed9781c2fc1591cd517deb44bfde2cf7206f6700c99ceb5d589c7efc02",
    ("L17", 2, 2, 1e-9): "a00a7a13b72a347d18de1044998840167a3fb9c2a8d7854e2f7547b7f6a07746",
    ("L17", 3, 3, 1e-9): "1bdc06e619c66cf84f4280384304570f362550ca180ab7524ca05a6115bc3cf2",
    ("L17", 2, 3, 1e-9): "fca52769aee1d0099bc5e1c025f9054e2c18e7093411c1e3e4accb5f76efcc20",
    # an escape map inside its cone is not counted UNDECIDED (the T6 pins but 3x3 at 1e-9)
    ("T6", 2, 2, 1e-9): "2941c8d4b1d6d775a5db96987ed6e9bf846a096a1650a9e59a9413eb67dbde01",
    ("T6", 3, 3, 1e-9): "81c59cf67f6022460053044b84ad5951a4936cadc0ce91452817470a27622636",
    ("L5", 2, 2, 0.05): "04ea24c5aa8b97d46bf48bb51e0bdf71bb1392c11a05992c9f06c21435d95676",
    ("L5", 3, 3, 0.05): "72c72fbe041122ea3b76b4ed45992b9c960256b6da1a61adddb6d7729562d59f",
    ("L5", 2, 3, 0.05): "2b687f40e5d0db4e9b23bdeab8db6db569676deff17e1e7590faad18cc2c05aa",
    ("L8", 2, 2, 0.05): "82a0eb4fb2eb25de2563692d52288b4d59dd1981c71010c271f2ad297e64c4a8",
    ("L8", 3, 3, 0.05): "8245653d165667a8baa29f32773b53b809fedac95900857fa418867763471ab2",
    ("L10", 2, 2, 0.05): "7b120b8424ad9daa7e1b9ee5d8c0f61e7de0bc38990f95b3b833617ca8bd9168",
    ("L10", 3, 3, 0.05): "943ae7ab71abaaa874f5370301519d6d0a8221efe9d7b34e10931f2236b830b4",
    ("L15", 2, 2, 0.05): "6e6f9f06d25d3f2920090c86580b4e6bfbc18899753109bf017138e99a297e9e",
    ("L15", 3, 3, 0.05): "a48ef10cff22ca38309e26626ce299417302cc07b0f5625548524e422f45780b",
    ("L15", 2, 3, 0.05): "3852ad1153932a8fe2a4e82ed353d6ff61711701c9def6b6380d2fd2b7cab820",
    ("L17", 2, 2, 0.05): "0a07505e2744c4d7a5a08b302d97e8d10e8d5512ad68d54de3a06be291b2c2e6",
    ("L17", 3, 3, 0.05): "55a57080d4f64b57a32b3d0a3473c66be230c6edb919a136ae0b8c50ec4fb025",
    ("L17", 2, 3, 0.05): "d834a801079934cc9efbc5ea66b7a3ed9eebe56ac1df850ea1b4c5141a012e82",
    ("T6", 2, 2, 0.05): "0608f24a129d49d5282fab198beb24875372da2271e8cbe1d3723302bfa6e375",
    ("T6", 3, 3, 0.05): "f3473eba1b7a1417ef19e1992baa3d7329043eb2acf4b8ce726675c03a37cefc",
}


@pytest.mark.parametrize("tid,n,m,tol", sorted(LONG_DIGESTS), ids=lambda v: str(v))
def test_report_digest_at_12_trials(tid, n, m, tol):
    report = emit_report(verify(tid, Dims(n, m), LONG_TRIALS, SEED, tol), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == LONG_DIGESTS[(tid, n, m, tol)]
