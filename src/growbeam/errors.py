"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the physically meaningful domain."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance.

    Carries the best iterate found so far in ``best`` (a StepSolution) and,
    when raised from a multi-step run, the partial trace in ``partial_trace``.
    """

    def __init__(self, message, best=None, partial_trace=None):
        super().__init__(message)
        self.best = best
        self.partial_trace = partial_trace


class ConfigError(ValueError):
    """Configuration text failed to parse or validate.

    ``line`` and ``column`` are 1-based positions in the input text.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            message = f"{prefix}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
