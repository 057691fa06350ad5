"""Size caps for enumeration-heavy operations.

A caller can move only these caps: ``max_terms`` (default ``MAX_TERMS``) of
``convolution``, ``composition_product`` and ``coproduct``, set by the CLI's
``--max-terms`` and ``TDA_MAX_TERMS``; ``cap`` of ``oracle.all_words``
(default ``ORACLE_SUPPORT_CAP``), set by ``verify --max-support``; and ``cap``
of ``solomon.fixed_space_check`` (default 5), set by ``verify --max-n``.
``VERIFY_CASE_CAP`` bounds what a verify law may plan before its first
case: ``verify dims`` refuses more set compositions than it, summed over
the weights it would enumerate.
"""

# Largest ground-set label accepted anywhere.
MAX_LABEL = 2**32 - 1

# Largest set whose ordered partitions we will enumerate.
# Fubini(10) is around 1e8, the practical desk limit.
ENUMERATION_CAP = 10

# Refuse coproducts (and basis expansions) producing more terms than this.
MAX_TERMS = 2**24

# Largest universe for brute-force endomorphism tables.
ORACLE_SUPPORT_CAP = 4

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
