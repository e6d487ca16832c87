"""Distance-spectrum-optimal CRC design for tail-biting convolutional codes.

Pipeline: collect the irreducible error events of a code once, rebuild
the low-weight tail-biting codeword list at any block length from them,
then screen every CRC of a given degree by its undetected-error spectrum.
"""

from .collector import IEE, IEEDatabase, collect_iees, load_database, save_database, verify_iee
from .designer import (
    DistanceSpectrum,
    DsoSearchResult,
    bound_sweep,
    candidate_list,
    db_to_linear,
    q_function,
    search_dso,
    truncated_union_bound,
    undetected_spectrum,
)
from .encoder import ConvCode, TBPath, encode_tb
from .errors import (
    CatastrophicEncoderError,
    CodeConstructionError,
    CoverageError,
    CrcforgeError,
    DatabaseFormatError,
    EnumerationGuardError,
    InvalidCrcError,
    PolynomialParseError,
)
from .gf2 import GF2Poly, parse_hex_crc, parse_octal
from .oracle import (
    brute_force_iees,
    brute_force_partition,
    brute_force_spectrum,
    is_cyclic_closed,
)
from .reconstructor import (
    TBPathSet,
    WeightLengthTable,
    build_tables,
    expand_and_dedup,
    growth_profile,
    iter_state_paths,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GF2Poly",
    "parse_octal",
    "parse_hex_crc",
    "ConvCode",
    "TBPath",
    "encode_tb",
    "IEE",
    "IEEDatabase",
    "collect_iees",
    "save_database",
    "load_database",
    "verify_iee",
    "WeightLengthTable",
    "TBPathSet",
    "build_tables",
    "expand_and_dedup",
    "iter_state_paths",
    "growth_profile",
    "DistanceSpectrum",
    "DsoSearchResult",
    "candidate_list",
    "undetected_spectrum",
    "search_dso",
    "q_function",
    "db_to_linear",
    "truncated_union_bound",
    "bound_sweep",
    "brute_force_spectrum",
    "brute_force_iees",
    "brute_force_partition",
    "is_cyclic_closed",
    "CrcforgeError",
    "PolynomialParseError",
    "InvalidCrcError",
    "CodeConstructionError",
    "CatastrophicEncoderError",
    "CoverageError",
    "EnumerationGuardError",
    "DatabaseFormatError",
]
