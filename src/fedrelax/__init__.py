"""Federated-learning simulation engine with personalized relaxed initialization.

Clients start each round not at the broadcast global model but at
w + beta * (w - last_local): the global model pushed away from the client's
previous local endpoint.  The engine instruments the client-drift divergence
term, composes the relaxation with six classic aggregation strategies, checks
the stated convergence/divergence bounds numerically on quadratic families,
and runs paired-dataset uniform-stability experiments — all bit-for-bit
reproducible from (config, seed).

Each name is imported from its module (fedrelax.core, fedrelax.problems, ...);
the package itself exports nothing, so importing it loads no module.
"""
