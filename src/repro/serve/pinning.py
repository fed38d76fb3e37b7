"""Serving-mode engine preparation: pin every DAC to a fixed range.

Offline experiments auto-range the input DAC per batch — harmless when
a whole evaluation set moves through together, but fatal for serving,
where the same request must produce the same logits whether it rides a
micro-batch of one or sixteen.  Deployment-mode periphery uses a fixed
reference voltage; :func:`pin_for_serving` models exactly that by
installing each engine's calibration-observed activation maximum as its
static DAC full-scale range (:meth:`CrossbarEngine.set_dac_range`).

The rest of the MVM chain is row-local in every mode (a row that
drives no voltage on a stream draws no current), so the pinned range
alone makes coalesced micro-batch logits bit-identical to per-request
serial inference — the contract `repro.verify` and the serve test
battery enforce.
"""

from __future__ import annotations


def pin_for_serving(model, margin: float = 1.0) -> dict[str, float]:
    """Pin every engine's DAC range from its calibration sweep.

    Parameters
    ----------
    model:
        A converted hardware model whose engines have been through
        :func:`repro.xbar.simulator.calibrate_hardware` (the sweep
        records each layer's largest observed activation magnitude in
        ``engine.cal_amax``).
    margin:
        Headroom multiplier on the calibration maximum.  1.0 clips any
        activation that exceeds what calibration saw — exactly what a
        fixed-reference DAC does; >1.0 trades quantization resolution
        for clip headroom.

    Returns the installed ``{layer_name: dac_range}`` map.
    """
    from repro.xbar.simulator import _named_nonideal_layers

    if not margin > 0.0:
        raise ValueError(f"margin must be positive, got {margin}")
    pinned: dict[str, float] = {}
    for name, layer in _named_nonideal_layers(model):
        engine = layer.engine
        amax = getattr(engine, "cal_amax", 0.0)
        if amax <= 0.0:
            raise ValueError(
                f"layer {name!r} has no calibration record (cal_amax == 0); "
                "run calibrate_hardware before pinning for serving"
            )
        engine.set_dac_range(amax * margin)
        pinned[name] = engine.dac_range
    return pinned
