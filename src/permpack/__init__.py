"""Perfect codes and 1-sphere packings in Cayley graphs of S_n
generated by diameter-3 transposition trees."""

from .cayley import (ORIGINAL, RENUMBERED, TranspositionTree, build_tree,
                     star_tree)
from .certify import (CertificateError, PackingCertificate,
                      VerificationReport, verify_eset, verify_packing)
from .constructions import (ConstructionError, nonuniform_extension,
                            table_row, uniform_from_exact,
                            xprime_perfect_code)
from .search import SearchOutcome, find_eset, max_packing

__version__ = "0.1.0"

__all__ = [
    "ORIGINAL", "RENUMBERED", "TranspositionTree", "build_tree", "star_tree",
    "CertificateError", "PackingCertificate", "VerificationReport",
    "verify_eset", "verify_packing",
    "ConstructionError", "nonuniform_extension", "table_row",
    "uniform_from_exact", "xprime_perfect_code",
    "SearchOutcome", "find_eset", "max_packing",
    "__version__",
]
