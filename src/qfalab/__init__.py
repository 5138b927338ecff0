"""qfalab: analysis, compilation and exact simulation of 1-way quantum finite automata.

The library decides, for a regular language given as a DFA, whether it is
recognizable by a measure-many (Kondacs-Watrous) one-way QFA, compiles
eligible DFAs into concrete QFAs with a certified success probability, and
simulates QFAs exactly to verify every claimed acceptance probability.
"""

from qfalab.automata import (
    Dfa,
    DfaParseError,
    Monoid,
    closed_sccs,
    language_contains,
    minimize,
    parse_dfa,
    transition_monoid,
)
from qfalab.combinators import MixtureSpec, complement, mix, separability, union
from qfalab.fragments import FragmentWitness, Verdict, classify, verify_witness
from qfalab.qfa import Qfa, RunOutcome, run, validate, verify_recognition
from qfalab.spectral import Decomposition, decompose
from qfalab.synthesis import SynthesisPlan, plan, synthesize

__all__ = [
    "Dfa",
    "DfaParseError",
    "Monoid",
    "closed_sccs",
    "language_contains",
    "minimize",
    "parse_dfa",
    "transition_monoid",
    "MixtureSpec",
    "complement",
    "mix",
    "separability",
    "union",
    "FragmentWitness",
    "Verdict",
    "classify",
    "verify_witness",
    "Qfa",
    "RunOutcome",
    "run",
    "validate",
    "verify_recognition",
    "Decomposition",
    "decompose",
    "SynthesisPlan",
    "plan",
    "synthesize",
]
