"""Helpers shared by several test modules; pytest puts this directory on
``sys.path``, so tests import them as ``from helpers import ...``."""


def strip_footer(text: str) -> str:
    """Drop footer/comment lines; used when comparing renders for equality."""
    kept = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return "\n".join(kept)
