"""chronon-lab: thermal time quanta, quantum speed limits, and
conditional-entropy numerics.

Everything works on dense complex matrices at desk scale, in natural units
h = k = 1: entropies are plain floats in nats, a time quantum at
temperature T is 1/(4TS), and Hamiltonian dynamics take hbar = 1.

The modules are the API; the package root re-exports nothing.  Import each
operation from the module that defines it, as in
``from chronon_lab.flow import simulate_flow``: ``linalg``, ``states``,
``entropy``, ``speed_limits``, ``sweeps``, ``flow``, ``gaussian``,
``relativity``, ``serialization`` and ``errors``, with ``cli`` as the
batch front end.
"""

__version__ = "0.1.0"
