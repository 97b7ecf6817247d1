"""Deterministic simulator for time-compressed spiking neural network
accelerators: weighted spike-train compression, input-output-weighted
neuron models, exact shifter-friendly time-constant scaling, liquid state
machines with a trainable readout, and an area-time-energy-loss metrics
engine."""

from .compress import (
    CompressionConfig,
    TimeConstantPlan,
    compress_train,
    decay_step,
    make_schedule,
    plan_time_constant,
    scale_time_constant,
)
from .fixedpoint import DEFAULT_FORMAT, FixedPointFormat, SaturationCounter, fixed_mul, from_fixed, to_fixed
from .learning import (
    Classification,
    LearningParams,
    TrainingReport,
    classify,
    evaluate,
    export_weights,
    import_weights,
    quantize_weights_pow2,
    split_dataset,
    train_readout,
)
from .metrics import (
    AtelInputs,
    EnergyModel,
    RunReport,
    atel,
    binned_counts,
    binned_raster_distance,
    energy_estimate,
    spike_statistics,
    write_raster_csv,
    write_report_json,
)
from .network import (
    EventCounters,
    LsmConfig,
    Network,
    SimulationTrace,
    build_lsm,
    export_network,
    import_network,
    set_compression_ratio,
    simulate,
)
from .neuron import (
    MODELS,
    BurstParams,
    CompiledNeuron,
    LIFParams,
    NeuronState,
    SynapseParams,
    compile_neuron,
    integrate_fire,
    new_neuron_state,
    synapse_step,
)
from .spike import (
    BinarySpikeTrain,
    SpikeDataset,
    WeightedSpikeTrain,
    dense_to_trains,
    load_event_file,
    poisson_encode,
    save_event_file,
    synthetic_task,
    trains_to_dense,
)

__version__ = "0.1.0"
