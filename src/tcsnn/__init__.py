"""Deterministic simulator for time-compressed spiking neural network
accelerators: weighted spike-train compression, input-output-weighted
neuron models, exact shifter-friendly time-constant scaling, liquid state
machines with a trainable readout, and an area-time-energy-loss metrics
engine."""

__version__ = "0.1.0"
