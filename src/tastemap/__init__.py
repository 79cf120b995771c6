"""Cultural signatures and boundaries of geographic areas from venue check-ins."""

__version__ = "0.1.0"
