"""Size caps for enumeration-heavy operations.

A caller can move only one cap: ``max_terms`` (default ``MAX_TERMS``) of
``convolution``, ``composition_product`` and ``coproduct``, set by the CLI's
``--max-terms`` alone.  Every other cap is a constant here; ``verify`` moves
none, and refuses a sweep size past one of them before its first case.
``VERIFY_CASE_CAP`` bounds what a verify law may plan: ``verify dims``
refuses more set compositions than it, summed over the weights it would
enumerate.  ``SOLOMON_WORK_CAP`` bounds ``solomon_compose`` before it builds
its first matrix.
"""

# Largest ground-set label accepted anywhere.
MAX_LABEL = 2**32 - 1

# Largest ground set enumerate_set_compositions accepts; it bounds that
# function only.  Fubini(10) is around 1e8, the practical desk limit.
ENUMERATION_CAP = 10

# Refuse coproducts (and basis expansions) producing more terms than this.
MAX_TERMS = 2**24

# Largest universe for brute-force endomorphism tables.
ORACLE_SUPPORT_CAP = 4

# Largest weight whose orbit-sum subalgebra fixed_space_check checks.
FIXED_SPACE_CAP = 5

# Largest w + log2(term pairs) solomon_compose takes on two weight-w
# elements; the matrices of one pair grow like 2^w.
SOLOMON_WORK_CAP = 13

# Most cases a verify law may plan.  The default sweeps stay under 1.6e6.
VERIFY_CASE_CAP = 10**7


class SizeLimitError(Exception):
    """An operation would exceed a configured size cap.

    ``requested`` is the size the operation asked for, ``cap`` the limit it
    broke; both are in the units of the message (elements, terms or degree).
    """

    def __init__(self, message: str, cap: int, requested: int):
        super().__init__(message)
        self.cap = cap
        self.requested = requested


def check_size(what: str, requested: int, cap: int) -> None:
    """Raise SizeLimitError when ``requested`` exceeds ``cap``."""
    if requested > cap:
        raise SizeLimitError(f"{what}: {requested} requested, cap {cap}", cap, requested)
