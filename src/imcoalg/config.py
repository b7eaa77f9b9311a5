"""Resource caps for stage construction and exhaustive enumeration.

Stage sizes grow super-exponentially with depth, so every constructor that
can blow up takes an explicit Caps value. The defaults are sized for desk
scale; the CLI exposes them as flags and honours IMCOALG_MAX_STAGE.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    max_stage: int = 5000        # elements allowed in one constructed stage
    max_depth: int = 4           # complex depth
    max_candidates: int = 1 << 21  # candidate subsets scanned per stage
    max_enumeration: int = 200_000  # maps enumerated by adjunction checks
    max_formulas: int = 1 << 20  # connective applications of a formula search

    def with_stage(self, max_stage):
        return replace(self, max_stage=max_stage)

    def with_depth(self, max_depth):
        return replace(self, max_depth=max_depth)


DEFAULT_CAPS = Caps()
