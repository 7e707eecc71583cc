"""helmdual: dual variational solver for the nonlinear Helmholtz equation
-Delta u - u = Q(x) |u|^{p-2} u on a periodic box."""

from .errors import (
    BadMagicError,
    ConfigError,
    ConfigTypeError,
    DomainError,
    FieldFileError,
    GridMismatchError,
    HelmdualError,
    HypothesisViolatedError,
    InsufficientShellsError,
    InterpolationDegenerateError,
    MaxIterationsError,
    MissingRequiredError,
    NoSolutionFoundError,
    NotInUPlusError,
    OutOfMemoryError,
    OutputError,
    ShellResonanceError,
    SupportOverflowError,
    TruncatedPayloadError,
    UnknownKeyError,
    VersionMismatchError,
    WorkerPoolError,
    ZeroFieldError,
)
from .kernel import (
    Field,
    GridSpec,
    helmholtz_multiplier,
)
from .dual_functional import Exponents, FunctionalContext, odd_power
from .search import (
    DescentConfig,
    MultistartResult,
    SolutionRecord,
    find_critical_point,
    finish_records,
    grid_field,
    initial_field,
    multistart_search,
    orbit_distance,
    primal_field,
    recenter,
)
from .asymptotic import (
    AsymptoticPair,
    BumpDescriptor,
    CompareReport,
    build_asymptotic_coefficient,
    compare_levels,
    transplant,
)
from .farfield import (
    FarfieldReport,
    SphereSamples,
    decay_and_expansion_check,
    equal_area_directions,
    farfield_amplitude,
)
from .config import (
    RunConfig,
    parse_config,
    read_field,
    serialize_config,
    write_field,
)
from .selftest import ps_boundedness_check

__version__ = "0.1.0"
