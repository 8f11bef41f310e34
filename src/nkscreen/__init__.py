"""nkscreen: reliable N-k contingency screening with input-convex classifiers.

The package builds a polyhedral description of the secure injection set of a
DC power network under all N-k outage contingencies, trains an input-convex
classifier to screen injections against that set, certifies (by solving LPs
over the classifier's sublevel set) that the classifier never reports a
violating injection as safe, and plugs the certified classifier into a
security-constrained OPF.
"""

__version__ = "0.2.0"
