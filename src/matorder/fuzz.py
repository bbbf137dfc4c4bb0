"""Randomized property suites over the order predicates and constructors.

Each property draws seeded random inputs and checks an implication or an
agreement between independent routes to the same verdict. Results carry
pass/fail counts and the first counterexample inline (inputs included),
and a fixed seed reproduces a run exactly. Relations and diamond routes
are looked up by name in ``orders.RELATIONS`` and ``orders.DIAMOND_ROUTES``.
"""

from __future__ import annotations

import math
import random
import reprlib
from dataclasses import asdict, dataclass, field
from functools import partial

from .decomp import diamond_canonical_pair
from .errors import DomainError, MatOrderError
from .matrix import (EQ_TOL, EXACT, FLOAT, RANK_FACTOR, Matrix,
                     matrices_equal, matrix_to_dict, rank)
from .orders import (DIAMOND_ROUTES, RELATIONS, left_star_equivalents,
                     projector_transfer, right_star_equivalents)
from .pinv import (inner_inverse, moore_penrose, penrose_residuals,
                   projector_rowspace)
from .predecessors import (build_predecessor, dagger_isotone,
                           diamond_predecessor, is_bidagger, random_idempotent,
                           recover_idempotent, reverse_order_law)
from .sampling import (exact_matrix, exact_pair, float_pair,
                       partial_isometry_pair, random_base_matrix)


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the fuzz suites and the command line."""

    backend: str = EXACT
    tol: float = EQ_TOL
    rank_factor: float = RANK_FACTOR
    seed: int = 0
    trials: int = 200
    dim_min: int = 1
    dim_max: int = 5

    def __post_init__(self):
        if self.backend not in (EXACT, FLOAT):
            raise MatOrderError("unknown backend %s" % reprlib.repr(self.backend))
        if not (0 < self.tol < math.inf and 0 < self.rank_factor < math.inf):
            raise MatOrderError("tolerances must be positive and finite")
        if not 1 <= self.dim_min <= self.dim_max:
            raise MatOrderError("need 1 <= dim_min <= dim_max")
        if self.backend == FLOAT and self.dim_max < 2:
            raise MatOrderError("the float suite needs dim_max >= 2")
        if self.trials < 0:
            raise MatOrderError("trial count cannot be negative")


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    first_counterexample: dict = field(default=None)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return asdict(self)


def _run(cfg: RunConfig, name: str, trial) -> PropertyResult:
    failures = 0
    first = None
    for i in range(cfg.trials):
        rng = random.Random("%d:%s:%d" % (cfg.seed, name, i))
        detail = trial(cfg, rng)
        if detail is not None:
            failures += 1
            if first is None:
                first = dict(detail, trial=i)
    return PropertyResult(name, cfg.trials, failures, first)


def _dims(cfg: RunConfig, rng: random.Random):
    return (rng.randint(cfg.dim_min, cfg.dim_max),
            rng.randint(cfg.dim_min, cfg.dim_max))


def _pair_for(cfg: RunConfig, rng: random.Random):
    if cfg.backend == EXACT:
        m, n = _dims(cfg, rng)
        return exact_pair(rng, m, n)
    n = rng.randint(max(2, cfg.dim_min), cfg.dim_max)
    return float_pair(rng, n)


def _ce(kind, a, b, **extra) -> dict:
    out = {"kind": kind, "a": matrix_to_dict(a), "b": matrix_to_dict(b)}
    out.update(extra)
    return out


# -- properties ----------------------------------------------------------


# (lower, upper): a pair in the lower relation is in the upper one
_IMPLICATIONS = (("star", "minus"), ("minus", "space"), ("star", "diamond"),
                 ("diamond", "space"), ("star", "left-star"),
                 ("star", "right-star"), ("left-star", "diamond"),
                 ("right-star", "diamond"))


def check_implication_chains(cfg: RunConfig, rng: random.Random):
    kind, a, b = _pair_for(cfg, rng)
    verdicts = {name: relation(a, b, cfg.tol, cfg.rank_factor).verdict
                for name, relation in RELATIONS.items()}
    broken = ["%s=>%s" % (lo, hi) for lo, hi in _IMPLICATIONS
              if verdicts[lo] and not verdicts[hi]]
    if broken:
        return _ce(kind, a, b, broken_links=broken)
    return None


def check_diamond_routes(cfg: RunConfig, rng: random.Random):
    kind, a, b = _pair_for(cfg, rng)
    reports = {name: route(a, b, cfg.tol, cfg.rank_factor)
               for name, route in DIAMOND_ROUTES.items()}
    verdicts = {name: r.verdict for name, r in reports.items()}
    split_witness = reports["range-split"].witnesses["direct_sum"]
    if len(set(verdicts.values())) != 1 or split_witness != verdicts["range-split"]:
        return _ce(kind, a, b, verdicts=verdicts, direct_sum=split_witness)
    return None


def _check_four_way(equivalents, cfg: RunConfig, rng: random.Random):
    kind, a, b = _pair_for(cfg, rng)
    rpt = equivalents(a, b, cfg.tol, cfg.rank_factor)
    if not rpt.witnesses["all_equal"]:
        return _ce(kind, a, b, witnesses=rpt.witnesses)
    return None


check_left_star_four_way = partial(_check_four_way, left_star_equivalents)
check_right_star_four_way = partial(_check_four_way, right_star_equivalents)


def check_space_crosschecks(cfg: RunConfig, rng: random.Random):
    kind, a, b = _pair_for(cfg, rng)
    rpt = RELATIONS["space"](a, b, cfg.tol, cfg.rank_factor, inner_samples=5,
                             rng=rng)
    w = rpt.witnesses
    if not w["projector_agrees"] or (rpt.verdict and
                                     w["inner_inverse_identities"] is False):
        return _ce(kind, a, b, witnesses=w)
    return None


def check_projector_transfer(cfg: RunConfig, rng: random.Random):
    kind, a, b = _pair_for(cfg, rng)
    for relation in ("star", "minus", "diamond", "space"):
        direct, projected = projector_transfer(a, b, relation, cfg.tol,
                                               cfg.rank_factor)
        if direct and not projected:
            return _ce(kind, a, b, relation=relation)
    # direct and projected now hold the space pair; range projectors alone
    # lose the row-space half of the space pre-order, and conjoining the
    # row-space projectors restores an iff
    qa = projector_rowspace(a, cfg.rank_factor)
    qb = projector_rowspace(b, cfg.rank_factor)
    row_side = RELATIONS["space"](qa, qb, cfg.tol, cfg.rank_factor).verdict
    if direct != (projected and row_side):
        return _ce(kind, a, b, relation="space-two-sided")
    return None


def check_backend_agreement(cfg: RunConfig, rng: random.Random):
    m, n = _dims(cfg, rng)
    a = Matrix.exact([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])
    af = a.to_float()
    exact_rank, float_rank = rank(a), rank(af, cfg.rank_factor)
    if exact_rank != float_rank:
        return {"kind": "rank", "a": matrix_to_dict(a),
                "exact_rank": exact_rank, "float_rank": float_rank}
    if not matrices_equal(moore_penrose(a).to_float(),
                          moore_penrose(af, cfg.rank_factor), cfg.tol):
        return {"kind": "pinv", "a": matrix_to_dict(a)}
    return None


def check_pinv_properties(cfg: RunConfig, rng: random.Random):
    m, n = _dims(cfg, rng)
    a = exact_matrix(rng, m, n)
    ad = moore_penrose(a)
    res = penrose_residuals(a, ad, cfg.tol)
    if not res.all_satisfied:
        return {"kind": "penrose", "a": matrix_to_dict(a),
                "residuals": res.to_dict()}
    if moore_penrose(ad) != a:
        return {"kind": "involution", "a": matrix_to_dict(a)}
    if moore_penrose(a.ct) != ad.ct:
        return {"kind": "adjoint", "a": matrix_to_dict(a)}
    w = exact_matrix(rng, n, m)
    g = inner_inverse(a, w)
    if a @ g @ a != a:
        return {"kind": "inner", "a": matrix_to_dict(a), "w": matrix_to_dict(w)}
    return None


def check_partial_isometry_collapse(cfg: RunConfig, rng: random.Random):
    m, n = _dims(cfg, rng)
    kind, a, b = partial_isometry_pair(rng, m, n)
    verdicts = {name: RELATIONS[name](a, b, cfg.tol, cfg.rank_factor).verdict
                for name in ("star", "minus", "diamond")}
    if len(set(verdicts.values())) != 1:
        return _ce(kind, a, b, **verdicts)
    return None


def _constructor_instance(cfg: RunConfig, rng: random.Random, t_rank_min: int = 0):
    n = rng.randint(max(2, cfg.dim_min), cfg.dim_max)
    r = rng.randint(1, n)
    b = random_base_matrix(n, r, rng)
    t = random_idempotent(r, rng.randint(t_rank_min, r), rng)
    return b, t


def check_predecessor_roundtrip(cfg: RunConfig, rng: random.Random):
    b, t = _constructor_instance(cfg, rng)
    bundle = build_predecessor(b, t, cfg.tol, cfg.rank_factor)
    a = bundle.predecessor
    if not RELATIONS["diamond"](a, b, cfg.tol, cfg.rank_factor).verdict:
        return _ce("constructed", a, b, reason="not below in diamond order")
    direct = moore_penrose(a, cfg.rank_factor)
    if not matrices_equal(bundle.predecessor_pinv, direct, cfg.tol):
        return _ce("constructed", a, b, reason="closed-form pinv mismatch")
    try:
        t_back = recover_idempotent(a, bundle.hs, cfg.tol, cfg.rank_factor)
    except DomainError as exc:
        return _ce("constructed", a, b, reason="recovery failed: %s" % exc)
    if not matrices_equal(t_back, t, 1e-8):
        return _ce("constructed", a, b, reason="recovered parameter differs",
                   t=matrix_to_dict(t), t_back=matrix_to_dict(t_back))
    return None


def check_constructor_criteria(cfg: RunConfig, rng: random.Random):
    b, t = _constructor_instance(cfg, rng)
    a = diamond_predecessor(b, t, cfg.tol, cfg.rank_factor)
    rol = reverse_order_law(a, b, cfg.tol, cfg.rank_factor)
    bid = is_bidagger(b, cfg.tol, cfg.rank_factor)
    iso = dagger_isotone(b, t, cfg.tol, cfg.rank_factor)
    bad = {name: pair for name, pair in
           (("reverse_order_law", rol), ("bidagger", bid), ("dagger_isotone", iso))
           if pair[0] != pair[1]}
    if bad:
        return _ce("constructed", a, b,
                   disagreements={k: list(v) for k, v in bad.items()},
                   t=matrix_to_dict(t))
    return None


def check_canonical_pair(cfg: RunConfig, rng: random.Random):
    b, t = _constructor_instance(cfg, rng, t_rank_min=1)
    a = diamond_predecessor(b, t, cfg.tol, cfg.rank_factor)
    cp = diamond_canonical_pair(a, b, cfg.tol, cfg.rank_factor)
    checks = {
        "first": matrices_equal(cp.first(), a, cfg.tol),
        "second": matrices_equal(cp.second(), b, cfg.tol),
        "gram": matrices_equal(cp.gram(), cp.cross_gram(), cfg.tol),
        "gram_nonsingular": rank(cp.gram(), cfg.rank_factor) == cp.rank_first,
        "core_rank": rank(cp.b_core, cfg.rank_factor) == rank(b, cfg.rank_factor),
        "u_unitary": matrices_equal(cp.u @ cp.u.ct,
                                    Matrix.identity(cp.u.rows, FLOAT), cfg.tol),
        "v_unitary": matrices_equal(cp.v @ cp.v.ct,
                                    Matrix.identity(cp.v.rows, FLOAT), cfg.tol),
    }
    if not all(checks.values()):
        return _ce("constructed", a, b,
                   checks={k: bool(v) for k, v in checks.items()})
    return None


_SHARED_PROPERTIES = (
    ("implication-chains", check_implication_chains),
    ("diamond-routes-agree", check_diamond_routes),
    ("left-star-four-way", check_left_star_four_way),
    ("right-star-four-way", check_right_star_four_way),
)

EXACT_PROPERTIES = _SHARED_PROPERTIES + (
    ("space-crosschecks", check_space_crosschecks),
    ("projector-transfer", check_projector_transfer),
    ("backend-rank-agreement", check_backend_agreement),
    ("pinv-properties", check_pinv_properties),
)

FLOAT_PROPERTIES = _SHARED_PROPERTIES + (
    ("partial-isometry-collapse", check_partial_isometry_collapse),
    ("predecessor-roundtrip", check_predecessor_roundtrip),
    ("constructor-criteria-agree", check_constructor_criteria),
    ("canonical-pair-invariants", check_canonical_pair),
)


def run_property(cfg: RunConfig, name: str) -> PropertyResult:
    table = dict(EXACT_PROPERTIES if cfg.backend == EXACT else FLOAT_PROPERTIES)
    if name not in table:
        raise MatOrderError("unknown property %r for backend %s" % (name, cfg.backend))
    return _run(cfg, name, table[name])


def run_suite(cfg: RunConfig):
    if cfg.trials == 0:
        return []
    table = EXACT_PROPERTIES if cfg.backend == EXACT else FLOAT_PROPERTIES
    return [_run(cfg, name, fn) for name, fn in table]


def run_all(cfg: RunConfig) -> dict:
    results = run_suite(cfg)
    return {
        "backend": cfg.backend,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "tol": cfg.tol,
        "dims": [cfg.dim_min, cfg.dim_max],
        "failures": sum(r.failures for r in results),
        "properties": [r.to_dict() for r in results],
    }
