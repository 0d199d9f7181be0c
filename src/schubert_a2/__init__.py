"""Exact Schubert-variety singularity analysis for the affine Weyl group of
type A2: alcove geometry, Bruhat order by convex hulls, the Carrell-Peterson
statistic, equivariant multiplicities, and the smooth and nrs loci."""

from .alcove import (
    AffineElement,
    E,
    Reflection,
    S0,
    S1,
    S2,
    SIMPLES,
    classify,
    descents,
    element_to_word,
    format_word,
    format_words,
    is_spiral,
    is_twisted_spiral,
    length,
    parse_word,
    spiral_factorizations,
    translate_into_chamber,
    type_of,
    word_to_element,
)
from .bruhat import (
    Hull,
    hexagon,
    hull_of,
    interval,
    leq,
    leq_oracle,
    shell_of,
)
from .kumar import (
    equivariant_multiplicity,
    kumar_smooth,
    psi_set,
    simple_root_action,
)
from .loci import (
    classify_schubert,
    dim_bound_check,
    enumerate_smooth_varieties,
    locus_report,
    maximal_singular,
    singular_codim,
    smooth_points,
)
from .memos import clear_memos
from .qstat import (
    lookup_holds,
    maximal_nrs,
    nrs,
    nrs_codimension,
    q_brute,
    q_structured,
    q_table,
    q_value,
)
from .rational import RationalNF
from .render import RenderSpec, render
from .verify import run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
