"""The package's one integer guard: counts, cutoffs and seeds are never coerced."""


def require_int(name: str, *values) -> None:
    """ValueError naming `name` unless every value is an int (True, 2.0 and "2" are not)."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        got, kind = (values[0], "an int") if len(values) == 1 else (values, "ints")
        raise ValueError(f"{name} must be {kind}, got {got!r}")
