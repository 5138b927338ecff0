"""qfalab: analysis, compilation and exact simulation of 1-way quantum finite automata.

The library decides, for a regular language given as a DFA, whether it is
recognizable by a measure-many (Kondacs-Watrous) one-way QFA, compiles
eligible DFAs into concrete QFAs with a certified success probability, and
simulates QFAs exactly to verify every claimed acceptance probability.

Each name is imported from its own module (`qfalab.automata`,
`qfalab.fragments`, `qfalab.qfa`, ...); the package itself loads nothing.
"""
