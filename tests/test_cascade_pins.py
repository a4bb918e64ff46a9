"""Bit pins of the seeded cascade Monte Carlo and of stability_test.

Every value below is a float.hex recorded from the engine that evaluated
each block of draws on its own.  The engine may regroup its arithmetic,
but it must consume every generator in the same order and give the same
floats: on every branch of cascade_oracle's BRANCHES, at 2 048 leaves with
a part-filled last batch (70 draws) and across chunks (130 draws), and with
the class or binomial alias tables refused outright or past k = 8, so some
blocks of a batch take the multinomial or binomial fallback and others not.
"""

from __future__ import annotations

import pytest

from potts_af import cascade
from potts_af.cascade import (
    CascadeSpec,
    cavity_terms,
    one_rsb_spec,
    stability_test,
    symmetric_t_hierarchy,
    uniform_hierarchy,
)
from potts_af.model import ModelParams
from test_cascade_oracle import BRANCHES

BENCH = ModelParams(q=2, beta=1.0, c=4.0)
L1 = (BENCH, 5, CascadeSpec((0.5,)), uniform_hierarchy(2))
ONE_RSB = (BENCH, 5, one_rsb_spec(0.5), symmetric_t_hierarchy(2, 0.5))
TWO_LEVELS = (BENCH, 5, CascadeSpec((0.3, 0.7)), uniform_hierarchy(2))
NO_CLASSES = {"class_table_fits": lambda k, q: False}
NO_BINOMIAL = {"binomial_table_fits": lambda k: False}
SMALL_TABLES = {"class_table_fits": lambda k, q: k <= 8, "binomial_table_fits": lambda k: k <= 8}


def _branch(name):
    spec, q, t = BRANCHES[name]
    hier = uniform_hierarchy(q) if t is None else symmetric_t_hierarchy(q, t)
    return ModelParams(q=q, beta=1.0, c=2.0), 3, spec, hier


# name: (positional args of cavity_terms, samples, n_atoms, seed, cascade patches)
CASES = {
    **{f"branch/{name}": (_branch(name), 150, 64, 40 + i, {})
       for i, name in enumerate(BRANCHES)},
    "l1/70": (L1, 70, 2048, 7, {}),
    "l1/130": (L1, 130, 2048, 8, {}),
    "one_rsb/70": (ONE_RSB, 70, 2048, 9, {}),
    "one_rsb/130": (ONE_RSB, 130, 2048, 10, {}),
    "two_levels/70": (TWO_LEVELS, 70, 2048, 11, {}),
    "l1/70/no class tables": (L1, 70, 2048, 12, NO_CLASSES),
    "l1/70/no binomial tables": (L1, 70, 2048, 13, NO_BINOMIAL),
    "l1/130/small tables": (L1, 130, 2048, 14, SMALL_TABLES),
    "two_levels/70/small tables": (TWO_LEVELS, 70, 2048, 15, SMALL_TABLES),
    "branch/1 level, leaves sampled, uniform/class tables to 6": (
        _branch("1 level, leaves sampled, uniform"), 150, 64, 16,
        {"class_table_fits": lambda k, q: k <= 6}),
}

# name: (m, n_atoms, draws, seed, keyword arguments)
STABILITY = {
    "sigma 1": (0.5, 256, 300, 11, {}),
    "sigma 0": (0.5, 128, 500, 3, {"sigma": 0.0}),
    "mismatch": (0.3, 100, 257, 5, {"scale_mismatch": 1.2, "top": 5}),
    "one atom": (0.7, 1, 40, 6, {"sigma": 0.4, "top": 1}),
}


def cascade_pins(name: str) -> list[str]:
    """value, stat_error and bias_estimate of G1, G2 and G1 - G2, as float.hex."""
    args, samples, n_atoms, seed, _ = CASES[name]
    ests = cavity_terms(*args, samples=samples, seed=seed, method="monte-carlo",
                        n_atoms=n_atoms)
    return [x.hex() for e in ests for x in (e.value, e.stat_error, e.bias_estimate)]


def stability_pins(name: str) -> list:
    m, n_atoms, draws, seed, kw = STABILITY[name]
    r = stability_test(m, n_atoms, draws, seed, **kw)
    return [r.statistic.hex(), r.min_pvalue.hex(), r.passed, r.reference_scale.hex()]


CASCADE_PINS = {
    'branch/0 levels, leaves integrated, t > 0': [
        '-0x1.2e999ceb9c51dp-4', '0x1.9ecc6e66e0fd6p-9', '0x0.0p+0',
        '-0x1.8d3c3a2091008p-2', '0x1.7e17c5c1d1a13p-8', '0x0.0p+0',
        '0x1.4195d2e5a9ec1p-2', '0x1.cabebf5ff9838p-8', '0x0.0p+0',
    ],
    'branch/0 levels, leaves integrated, uniform': [
        '0x1.403174bd61c99p-1', '0x1.f89041d1d52efp-50', '0x0.0p+0',
        '-0x1.e497b5307d2fap-3', '0x1.bd8e54d0d9804p-51', '0x0.0p+0',
        '0x1.b957620981158p-1', '0x1.6babb61d20f6dp-49', '0x0.0p+0',
    ],
    'branch/0 levels, leaves sampled, uniform': [
        '-0x1.a286e037d864ap-4', '0x1.8029f1eef8d73p-7', '0x0.0p+0',
        '-0x1.e087d2b4821b4p-2', '0x1.78bb24d45271dp-6', '0x0.0p+0',
        '0x1.77e61aa68c022p-2', '0x1.b8991671656e7p-6', '0x0.0p+0',
    ],
    'branch/1 level, leaves sampled, uniform': [
        '0x1.3def5cc3d6120p-1', '0x1.2168ac09ea93fp-11', '0x1.f049ae630b9a1p-9',
        '-0x1.20624fd2dfe5dp-2', '0x1.eb02c3a02c13fp-9', '0x1.f049ae630b9a1p-9',
        '0x1.ce2084ad4604ep-1', '0x1.d8427d8842392p-9', '0x1.f049ae630b9a1p-8',
    ],
    'branch/1 level, leaves integrated, t < 0': [
        '0x1.402235922df68p-1', '0x1.091c67bf877bep-16', '0x1.c9bd3e12ad518p-9',
        '-0x1.e67f9982b46a4p-3', '0x1.c2f3f9eafd31cp-14', '0x1.c9bd3e12ad518p-9',
        '0x1.b9c21bf2db111p-1', '0x1.b7608e784cadep-14', '0x1.c9bd3e12ad518p-8',
    ],
    'branch/1 level, leaves sampled, t > 0': [
        '-0x1.6649784318338p-4', '0x1.69824dd0a367bp-10', '0x1.a2ccf4568f850p-9',
        '-0x1.c2460f13e7852p-2', '0x1.5bfdac50f3951p-8', '0x1.a2ccf4568f850p-9',
        '0x1.68b3b10321784p-2', '0x1.4a5ebfc29b0d7p-8', '0x1.a2ccf4568f850p-8',
    ],
    'branch/1 level, leaves sampled, t < 0': [
        '0x1.3d0a06d8755e0p-1', '0x1.89e87a4aab9a1p-11', '0x1.34a140b5f778ap-11',
        '-0x1.1f61c3fe06e9bp-2', '0x1.4e1adfc4611ecp-8', '0x1.34a140b5f778ap-11',
        '0x1.ccbae8d778d2ep-1', '0x1.424aabb8bbbe2p-8', '0x1.34a140b5f778ap-10',
    ],
    'branch/2 levels, leaves sampled, uniform': [
        '-0x1.45d3e63893db6p-4', '0x1.b7643d6f83809p-10', '0x1.0190238efd107p-4',
        '-0x1.a4ca122198509p-2', '0x1.416edba00094ep-8', '0x1.0190238efd107p-4',
        '0x1.535518937359cp-2', '0x1.390a0d67e3658p-8', '0x1.0190238efd107p-3',
    ],
    'branch/2 levels, leaves sampled, t > 0': [
        '-0x1.47b4bc466f944p-4', '0x1.5113c400f923bp-10', '0x1.00f4e06af935fp-4',
        '-0x1.add32ff1e5671p-2', '0x1.29f85943e605fp-8', '0x1.00f4e06af935fp-4',
        '0x1.5be600e049820p-2', '0x1.1919178fbd322p-8', '0x1.00f4e06af935fp-3',
    ],
    'branch/2 levels, leaves sampled, t < 0': [
        '0x1.3e96fd65d4054p-1', '0x1.879b04e8b6cddp-11', '0x1.006d886668be6p-4',
        '-0x1.142a6cf16b72ap-2', '0x1.04eccd0f941f7p-8', '0x1.006d886668be6p-4',
        '0x1.c8ac33de89be9p-1', '0x1.fa546218d027dp-9', '0x1.006d886668be6p-3',
    ],
    'branch/2 levels, leaves integrated, t > 0': [
        '0x1.4026dd0b339a5p-1', '0x1.143dd9ce64269p-16', '0x1.022ae2e25fdb3p-4',
        '-0x1.e61058f50524fp-3', '0x1.396b30c62b578p-14', '0x1.022ae2e25fdb3p-4',
        '0x1.b9aaf34874e39p-1', '0x1.30e526c40b367p-14', '0x1.022ae2e25fdb3p-3',
    ],
    'l1/70': [
        '-0x1.c89cce80104a7p-1', '0x1.58a1167863f11p-8', '0x1.df32a3b73f916p-15',
        '-0x1.c67d119492e39p-1', '0x1.c197cc09b8932p-7', '0x1.df32a3b73f916p-15',
        '-0x1.0fde75beb3700p-8', '0x1.a2425ce31c880p-7', '0x1.df32a3b73f916p-14',
    ],
    'l1/130': [
        '-0x1.ca08b89172cabp-1', '0x1.063e23305a833p-8', '0x1.7db9f32b5bd71p-15',
        '-0x1.c0d1a7e64bb28p-1', '0x1.484d1f4e876fap-7', '0x1.7db9f32b5bd71p-15',
        '-0x1.26e21564e3060p-6', '0x1.3bbb6acdb2bf2p-7', '0x1.7db9f32b5bd71p-14',
    ],
    'one_rsb/70': [
        '-0x1.a97dba9c3c0a4p-1', '0x1.72e053f4ebe3bp-11', '0x1.27954935db03ap-14',
        '-0x1.87d3d01a2152cp-1', '0x1.02e39425e4c67p-10', '0x1.27954935db03ap-14',
        '-0x1.0d4f5410d5bc0p-4', '0x1.d247703ea528ep-11', '0x1.27954935db03ap-13',
    ],
    'one_rsb/130': [
        '-0x1.a998f732f6751p-1', '0x1.cd66ff2e17fdfp-12', '0x1.e3c1548440dd0p-15',
        '-0x1.88be49815b319p-1', '0x1.24d12b825addcp-11', '0x1.e3c1548440dd0p-15',
        '-0x1.06d56d8cda1c0p-4', '0x1.24d2acb9d834fp-11', '0x1.e3c1548440dd0p-14',
    ],
    'two_levels/70': [
        '-0x1.bf4860800c6f3p-1', '0x1.5590d16b7bff0p-8', '0x1.90cf806f509f6p-6',
        '-0x1.b13d4dbee8df0p-1', '0x1.50d053e21de54p-7', '0x1.90cf806f509f6p-6',
        '-0x1.c162582472060p-6', '0x1.149b74629bda4p-7', '0x1.90cf806f509f6p-5',
    ],
    'l1/70/no class tables': [
        '-0x1.cc77ed40a378ep-1', '0x1.3f44bd2dca656p-6', '0x1.8e5e3c6fa337ap-15',
        '-0x1.ce54ee5b8524bp-1', '0x1.59be8d65ba925p-7', '0x1.8e5e3c6fa337ap-15',
        '0x1.dd011ae1abd00p-9', '0x1.6cb6535362570p-6', '0x1.8e5e3c6fa337ap-14',
    ],
    'l1/70/no binomial tables': [
        '-0x1.c34fe2447fb40p-1', '0x1.0c21604a0b22cp-7', '0x1.92a078db58bd7p-15',
        '-0x1.cfa951a14888ap-1', '0x1.506d23cde3709p-7', '0x1.92a078db58bd7p-15',
        '0x1.8b2deb991a940p-6', '0x1.487da01caa588p-7', '0x1.92a078db58bd7p-14',
    ],
    'l1/130/small tables': [
        '-0x1.c5c4ec97efc17p-1', '0x1.1d30a7a10381ep-7', '0x1.fc807e37eec12p-15',
        '-0x1.bcb158b0d4fe6p-1', '0x1.2d6a972ccab0dp-7', '0x1.fc807e37eec12p-15',
        '-0x1.22727ce358620p-6', '0x1.992bf869ca842p-7', '0x1.fc807e37eec12p-14',
    ],
    'two_levels/70/small tables': [
        '-0x1.bb9f33078a940p-1', '0x1.82f1ab30c4fa2p-8', '0x1.8fc032ea96825p-6',
        '-0x1.ab6bda7d68b0ap-1', '0x1.7243bd0e73d33p-7', '0x1.8fc032ea96825p-6',
        '-0x1.033588a21e360p-5', '0x1.9abd6bbd1244fp-7', '0x1.8fc032ea96825p-5',
    ],
    'branch/1 level, leaves sampled, uniform/class tables to 6': [
        '0x1.3e4a23a3a10dep-1', '0x1.044be8e2c69e5p-8', '0x1.d462d6c348415p-9',
        '-0x1.1de5f4c0ae844p-2', '0x1.0777a162d7788p-8', '0x1.d462d6c348415p-9',
        '0x1.cd3d1e03f8500p-1', '0x1.966d5296baa46p-8', '0x1.d462d6c348415p-8',
    ],
}

STABILITY_PINS = {
    'sigma 1': ['0x1.d0369d0369d03p-5', '0x1.71b24ba23f769p-1', True, '0x1.48b5e3c3e8186p+0'],
    'sigma 0': ['0x1.374bc6a7ef9dbp-4', '0x1.c82a2f4eb9485p-4', True, '0x1.0000000000000p+0'],
    'mismatch': ['0x1.1ee11ee11ee12p-4', '0x1.1c1de3187120ap-1', True, '0x1.64ea5cdb11af5p+0'],
    'one atom': ['0x1.3333333333333p-3', '0x1.88282ad5a0768p-1', True, '0x1.0ebeb8c7f95e6p+0'],
}


@pytest.mark.parametrize("name", list(CASES))
def test_cascade_terms_are_pinned(name, monkeypatch):
    for attr, fn in CASES[name][4].items():
        monkeypatch.setattr(cascade, attr, fn)
    assert cascade_pins(name) == CASCADE_PINS[name]


@pytest.mark.parametrize("name", list(STABILITY))
def test_stability_report_is_pinned(name):
    assert stability_pins(name) == STABILITY_PINS[name]
