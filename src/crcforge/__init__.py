"""Distance-spectrum-optimal CRC design for tail-biting convolutional codes.

Pipeline: collect the irreducible error events of a code once, rebuild
the low-weight tail-biting codeword list at any block length from them,
then screen every CRC of a given degree by its undetected-error spectrum.

Importing the package loads none of its modules. Each name below is
imported from its module on first access (``crcforge.search_dso``,
``from crcforge import ...`` or a star import), so a caller loads only
what it uses: gf2, encoder, errors and bound are pure Python, and the
others import numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "gf2": ["Crc", "parse_octal", "parse_hex_crc"],
    "encoder": ["ConvCode", "TBPath", "encode_tb"],
    "collector": ["IEEDatabase", "collect_iees", "save_database", "load_database", "verify_events"],
    "reconstructor": ["WeightLengthTable", "TBPathSet", "build_tables", "expand_and_dedup", "growth_profile"],
    "bound": [
        "DistanceSpectrum",
        "q_function",
        "db_to_linear",
        "truncated_union_bound",
        "bound_sweep",
        "write_bound_csv",
    ],
    "designer": ["DsoSearchResult", "candidate_list", "undetected_spectrum", "search_dso"],
    "oracle": ["brute_force_spectrum", "brute_force_iees", "brute_force_partition", "is_cyclic_closed"],
    "errors": [
        "CrcforgeError",
        "PolynomialParseError",
        "InvalidCrcError",
        "CodeConstructionError",
        "CatastrophicEncoderError",
        "CoverageError",
        "EnumerationGuardError",
        "DatabaseFormatError",
    ],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
