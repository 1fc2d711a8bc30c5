"""Online cache prefetching against finite-state benchmarks.

Every policy and every oracle is a machine plus a per-state rule. A
machine (see `fsm`) has an int `current` state, an `advance(request)`
method and a bulk `states(requests)` method that yields the state before
each request: the order-k context `Window(k, n_files)`, whose state codes
the last k requests in base n_files + 1 (order 0 for plain SAGE), the
LZ-78 parse tree `LzTree`, whose states are node ids, or a given FSM run
by `FsmRunner`. The online policies run one SAGE instance (sampled Hedge
over C-subsets) per state, in `MachineSagePolicy`; every offline oracle,
`fsp-oracle` included, caches each state's top-C files, from one counting
pass (`state_file_counts`, `top_c_hits`) keyed by the int
`state * n_files + file`: they score the total count less, in each state
with more than C distinct files, the counts below its C-th.
Around them: LRU and FIFO as direct simulators, closed-form bound
evaluators, a synthetic trace generator with a zero-miss certificate, and
a config-driven experiment harness.
"""

from .core import (CacheSet, ConfigError, DataError, DomainError, NumericError,
                   RequestTrace, RunRecord, SplitMix64, UniCacheError, load_trace, replay,
                   save_trace)
from .fsm import (FifoPolicy, FsmRunner, FsmSpec, LruPolicy, Prefetcher, Window, load_fsm,
                  offline_fsp_hits, save_fsm, state_file_counts, top_c_hits)
from .sage import EtaConfig, MachineSagePolicy, SagePolicy, SageState, lockstep_replay
from .markov import MarkovSagePolicy, offline_markov_hit_rate
from .lz import LzSagePolicy, LzTree, depth_split_counts, dump_tree, offline_lz_oracle
from .bounds import (fsm_regret_bound, fsp_total_regret_bound, lz_regret_bound,
                     markov_regret_bound, markov_vs_fsp_gap, miss_fraction_bound,
                     static_regret_bound)
from .datagen import generate_trace, random_fsm
from .harness import (ExperimentConfig, PolicySpec, ResultRow, parse_config, run_experiment,
                      summarize, to_csv)

__version__ = "0.1.0"
