"""viscowave: a 1D coupled viscous-wave / heat simulator with built-in
regularity diagnostics.

The package integrates the Kelvin-Voigt-type system

    u_tt = (gamma(Theta) u_xt)_x + a u_xx - (f(Theta))_x
    Theta_t = Theta_xx + gamma(Theta) u_xt^2 - f(Theta) u_xt

on an interval with pinned displacement and insulated ends, and instruments
each run with the quantities the a-priori theory keeps bounded: the energy
budget, Sobolev-norm monitors, a damped-antiderivative parabolic residual, a
numeric lower bound for the maximal-regularity constant, and a finite-time
blow-up detector.
"""

import os

# Before numpy loads: OpenBLAS then starts no worker threads.  No viscowave
# call reaches a threaded BLAS kernel (the solves are unthreaded LAPACK
# dgtsv), so a pool only costs start-up time.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ConfigError, DomainError, StepError, ViscowaveError
from .grid import BcKind, Grid1D, d1, d2, div_flux, integrate
from .material import (
    DataBoundM,
    InitialData,
    Lambda1,
    MaterialLaws,
    ValidationReport,
    data_bound_M,
    eval_f,
    eval_gamma,
    lambda1_bound,
    validate_hypotheses,
)
from .dynamics import (
    Ensemble,
    EtaState,
    Forcing,
    Recorder,
    SchemeConfig,
    Snapshots,
    State,
    Trajectory,
    adapt_dt,
    run,
    simulate,
    step_eta,
    step_with_count,
)
from .diagnostics import (
    BlowupReport,
    EnergyBudget,
    KEstimate,
    MonitorConfig,
    TheoryConstants,
    TheoryMonitors,
    blowup_check,
    energy,
    estimate_K,
    lq_balance,
    theory_constants,
)
from .scenarios import (
    CascadeReport,
    EtaCascadeReport,
    MmsCase,
    Scenario,
    battery_scenario,
    builtin_battery,
    eps_cascade,
    eta_cascade,
    mms_case,
    mollify,
)
from .config import (
    ConvergeConfig,
    RunConfig,
    SweepConfig,
    apply_axis,
    parse_config,
    parse_converge_config,
    parse_sweep_config,
    serialize_config,
)

__version__ = "0.1.0"
