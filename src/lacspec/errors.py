"""Shared exception types."""


class NumericalError(RuntimeError):
    """An eigensolve, optimization, or certified bound failed its contract."""


class ConfigError(ValueError):
    """Experiment configuration failed validation.

    Carries the full list of violations so callers can report all of them
    at once instead of stopping at the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class LimitError(ValueError):
    """An input asks for more than a fixed resource limit allows.

    ``key`` names the input, as a config key such as ``count``, and the
    message is ``key`` followed by ``detail``, so that a command line can
    name its flag of the same name instead.
    """

    def __init__(self, key: str, detail: str):
        self.key, self.detail = key, detail
        super().__init__(f"{key} {detail}")
