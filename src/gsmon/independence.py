"""Marginals and conditional-independence checkers.

A kernel f : A -> X1 (x) ... (x) Xn exhibits conditional independence (CI)
of a partition of its output coordinates when it is a copy followed by a
tensor of factor kernels, one per block.  Three decision procedures are
provided: the equivalence method (weakly Markov instances: f is CI iff it is
a scalar multiple of the product of its marginals), an exact rank-one outer
product test by the instance (`rank_one_factors`: M, M* and D), and
brute-force factor search for enumerable instances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    InvalidBlock,
    InvariantViolation,
    MethodInapplicable,
    TypeMismatch,
)
from .finset import FinSet, product, regroup_fun
from .kernels import Kernel, equivalent, mass, pairing, pushforward, scalar_action
from .monads import budgeted_product, classification_of
from .report import CheckReport

Partition = Sequence[Sequence[int]]


def _check_factors(f: Kernel, factors: Sequence[FinSet]):
    if product(list(factors)) != f.cod:
        raise InvalidBlock("factors do not multiply to the kernel codomain")


def _check_partition(partition: Partition, n: int):
    seen = sorted(i for block in partition for i in block)
    if not partition or any(not block for block in partition):
        raise InvalidBlock("partition blocks must be nonempty")
    if seen != list(range(n)):
        raise InvalidBlock("partition must cover each coordinate exactly once")


def marginal(f: Kernel, factors: Sequence[FinSet], block: Sequence[int]) -> Kernel:
    """Discard every output coordinate outside `block`, as a pushforward."""
    _check_factors(f, factors)
    block = list(block)
    if any(not 0 <= i < len(factors) for i in block) or len(set(block)) != len(block):
        raise InvalidBlock(f"bad coordinate block {block}")
    cod = product([factors[i] for i in block])
    return pushforward(regroup_fun(f.cod, cod, factors, block), f)


def _reorder(k: Kernel, factors: Sequence[FinSet], partition: Partition) -> Kernel:
    """Push forward along the base permutation sending the blocks-flattened
    coordinate order back to the original coordinate order."""
    flat = [i for block in partition for i in block]
    if flat == sorted(flat):
        return k
    back = [flat.index(i) for i in range(len(factors))]
    return pushforward(regroup_fun(k.cod, product(factors), [factors[i] for i in flat], back), k)


def product_of_factors(
    factors: Sequence[FinSet], factor_kernels: Sequence[Kernel], partition: Partition
) -> Kernel:
    """Assemble copy;(g_1 (x) ... (x) g_n) and reorder to coordinate order."""
    return _reorder(pairing(*factor_kernels), factors, partition)


def product_of_marginals(
    f: Kernel, factors: Sequence[FinSet], partition: Partition
) -> Kernel:
    """The product of the per-block marginals of f, in coordinate order."""
    _check_factors(f, factors)
    _check_partition(partition, len(factors))
    margs = [marginal(f, factors, block) for block in partition]
    return product_of_factors(factors, margs, partition)


@dataclass
class CIResult:
    holds: bool
    method: str  # equivalence | rank1 | exhaustive_search | n2_equation
    certificate: list = field(default_factory=list)  # factor kernels when holds
    scalar: Optional[Kernel] = None
    witness: object = None

    def to_json(self) -> dict:
        from .report import show

        return {
            "holds": self.holds,
            "method": self.method,
            "certificate": [show(k) for k in self.certificate],
            "scalar": show(self.scalar),
            "witness": show(self.witness),
        }


def _verify_certificate(f: Kernel, factors, result: CIResult, partition: Partition):
    if not result.holds or not result.certificate:
        return
    rebuilt = product_of_factors(factors, result.certificate, partition)
    if rebuilt != f:
        raise InvariantViolation("CI certificate does not reproduce the kernel")


def check_ci(
    f: Kernel,
    factors: Sequence[FinSet],
    partition: Partition,
    method: str = "auto",
) -> CIResult:
    """Decide conditional independence of the partitioned outputs given the input."""
    _check_factors(f, factors)
    _check_partition(partition, len(factors))
    inst = f.inst

    if method == "auto":
        if classification_of(inst).weakly_affine:
            method = "equivalence"
        elif inst.enumerable:
            method = "exhaustive"
        else:
            method = "rank1"

    if method == "equivalence":
        result = _ci_equivalence(f, factors, partition)
    elif method == "rank1":
        result = _ci_rank1(f, factors, partition)
    elif method == "exhaustive":
        result = _ci_exhaustive(f, factors, partition)
    else:
        raise MethodInapplicable(f"unknown CI method {method!r}")
    _verify_certificate(f, factors, result, partition)
    return result


def _ci_equivalence(f: Kernel, factors, partition) -> CIResult:
    if not classification_of(f.inst).weakly_affine:
        raise MethodInapplicable(
            f"equivalence method requires a weakly Markov instance, not {f.inst.id}"
        )
    margs = [marginal(f, factors, block) for block in partition]
    p = product_of_factors(factors, margs, partition)
    a = equivalent(p, f)
    if a is None:
        return CIResult(False, "equivalence", witness="not a scalar multiple of the product of marginals")
    # Attach the scalar to the last factor so the certificate replays exactly.
    cert = list(margs[:-1]) + [scalar_action(a, margs[-1])]
    return CIResult(True, "equivalence", certificate=cert, scalar=a)


def _in_block_order(f: Kernel, factors, partition) -> tuple:
    """The block sets of the partition, and f's columns moved into block
    order, each mapped as it is read."""
    blocks = [product([factors[i] for i in block]) for block in partition]
    flat = [i for block in partition for i in block]
    to_blocks = regroup_fun(f.cod, product(blocks), factors, flat)
    return blocks, (f.inst.map(to_blocks, col) for col in f.columns)


def _ci_rank1(f: Kernel, factors, partition) -> CIResult:
    """Exact outer-product test, columnwise, by the instance's `rank_one_factors`."""
    blocks, columns = _in_block_order(f, factors, partition)
    factor_columns, failure = f.inst.rank_one_factors(columns, blocks)
    if failure is not None:
        index = [b.elements[i] for b, i in zip(blocks, failure)]
        witness = {"column": "outer-product identity fails", "index": index}
        return CIResult(False, "rank1", witness=witness)
    cert = [Kernel(f.inst, f.dom, b, column) for b, column in zip(blocks, factor_columns)]
    return CIResult(True, "rank1", certificate=cert)


def _ci_exhaustive(f: Kernel, factors, partition) -> CIResult:
    if not f.inst.enumerable:
        raise MethodInapplicable(f"exhaustive CI search needs an enumerator ({f.inst.id})")
    inst = f.inst
    blocks, targets = _in_block_order(f, factors, partition)
    combos = budgeted_product(
        (inst.enumerate_values(b) for b in blocks), inst.id, "factor combinations per column"
    )
    # Each column takes the first combination, in enumeration order, whose
    # lax_c fold is its value.  `first` maps each fold computed so far to the
    # first combination that gave it; the folds are computed once, in order,
    # and only as far as a scan from the first combination would have gone.
    first = {}
    found = []
    for x, target in zip(f.dom.elements, targets):
        combo = first.get(target)
        if combo is None:
            for c in combos:
                value = functools.reduce(inst.lax_c, c)
                first.setdefault(value, c)
                if value == target:
                    combo = c
                    break
        if combo is None:
            return CIResult(False, "exhaustive_search", witness={"column": x})
        found.append(combo)
    cert = [
        Kernel(inst, f.dom, block, [combo[k] for combo in found])
        for k, block in enumerate(blocks)
    ]
    return CIResult(True, "exhaustive_search", certificate=cert)


def check_ci_n2_equation(f: Kernel, factors: Sequence[FinSet]) -> bool:
    """The binary CI criterion for weakly Markov categories:
    f . mass(f) equals the pairing of the two marginals of f."""
    if len(factors) != 2:
        raise TypeMismatch("the n=2 equation needs a binary product codomain")
    _check_factors(f, factors)
    # The codomain (X x Y) x I of the left side is X x Y strictly.
    return pairing(f, mass(f)) == product_of_marginals(f, factors, [[0], [1]])


def check_local_independence(
    f: Kernel, factors: Sequence[FinSet], method: str = "auto"
) -> CheckReport:
    """Localised independence: CI(XY|Z) and CI(X|YZ) jointly imply CI(X|Y|Z)."""
    _check_factors(f, factors)
    if len(factors) != 3:
        raise TypeMismatch("localised independence needs a ternary product codomain")
    prem1 = check_ci(f, factors, [[0, 1], [2]], method)
    prem2 = check_ci(f, factors, [[0], [1, 2]], method)
    name = f"local_independence[{f.inst.id}]"
    if not (prem1.holds and prem2.holds):
        return CheckReport(
            name=name,
            passed=True,
            mode="direct",
            note="vacuous-pass: premises do not both hold",
            witness={"ci_xy_z": prem1.holds, "ci_x_yz": prem2.holds},
        )
    conclusion = check_ci(f, factors, [[0], [1], [2]], method)
    return CheckReport(
        name=name,
        passed=conclusion.holds,
        mode="direct",
        note="premises hold",
        witness=None if conclusion.holds else conclusion.witness,
    )
