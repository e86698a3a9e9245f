"""chronon-lab: thermal time quanta, quantum speed limits, and
conditional-entropy numerics.

Everything works on dense complex matrices at desk scale.  Entropies are in
nats; the natural-unit ThermalContext (h = k = c = T = 1) converts them into
time quanta and process velocities, while Hamiltonian dynamics follow the
hbar = 1 convention (ThermalContext.hbar_one).

The modules are the API; the package root re-exports nothing.  Import each
operation from the module that defines it, as in
``from chronon_lab.flow import simulate_flow``: ``linalg``, ``states``,
``entropy``, ``speed_limits``, ``sweeps``, ``flow``, ``gaussian``,
``relativity``, ``serialization`` and ``errors``, with ``cli`` as the
batch front end.
"""

__version__ = "0.1.0"
