"""Cultural signatures and boundaries of geographic areas from venue check-ins."""

from .errors import (
    DataError,
    EmptyAreaError,
    ParseError,
    TaxonomyError,
    UndefinedMetric,
)
from .model import (
    Area,
    Taxonomy,
    UserProfile,
    class_slice,
    load_taxonomy,
    reference_taxonomy_path,
)

__version__ = "0.1.0"

__all__ = [
    "Area",
    "DataError",
    "EmptyAreaError",
    "ParseError",
    "Taxonomy",
    "TaxonomyError",
    "UndefinedMetric",
    "UserProfile",
    "class_slice",
    "load_taxonomy",
    "reference_taxonomy_path",
    "__version__",
]
