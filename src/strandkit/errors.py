"""Exception hierarchy shared by all strandkit modules."""


class StrandkitError(Exception):
    """Base class for all strandkit errors."""


class SceneError(StrandkitError):
    """Invalid scene input: parse failures or violated type invariants."""


class DegeneracyError(SceneError):
    """Geometric degeneracy (tangency, collinear overlap, triple point, ...).

    Degenerate scenes are rejected, never silently perturbed.
    """


class InvariantError(StrandkitError):
    """A structural invariant that should hold by construction was violated.

    Raised by the checkers and by hard postcondition checks; signals a
    construction bug or a falsified bound, not bad user input.
    """
