"""Hand-written expected answers for every benchmark workload.

Each value was written down by hand and cross-checked against the
dense statevector backend (``test_expected_answers_match_dense`` in
``selftest.py``).  None depends on the seed: the seed picks the QRW
start positions and the BV secret, every start position gives the
same ladders below, and a BV image is one ray for any secret.
"""

# reach-qrw: ``check("AG start")`` forward is violated after one T1
# step; ``reachable`` backward runs from the start state
REACH_FORWARD_HOLDS = False
REACH_FORWARD_DIMENSIONS = [1, 2, 4, 7, 10, 14, 18, 22, 26, 30, 32, 32]
REACH_WITNESS_SYMBOLS = ["T1"]
REACH_BACKWARD_DIMENSIONS = [1, 3, 6, 10, 14, 18, 22, 26, 30, 32, 32]

# image-table1: dimension of the image of the initial space, for every
# method
TABLE1_DIMENSION = {"grover": 1, "qft": 1, "bv": 1, "qrw": 1}

# sweep-store: ``AG init`` under contraction;
# (model, size, direction) -> (verdict, reachable dimension)
SWEEP_ROWS = {
    ("grover", 3, "forward"): ("violated", 2),
    ("grover", 3, "backward"): ("violated", 8),
    ("grover", 4, "forward"): ("violated", 2),
    ("grover", 4, "backward"): ("violated", 16),
    ("ghz", 3, "forward"): ("violated", 6),
    ("ghz", 3, "backward"): ("violated", 8),
    ("ghz", 4, "forward"): ("violated", 14),
    ("ghz", 4, "backward"): ("violated", 16),
    ("qrw", 3, "forward"): ("violated", 8),
    ("qrw", 3, "backward"): ("violated", 8),
    ("qrw", 4, "forward"): ("violated", 16),
    ("qrw", 4, "backward"): ("violated", 16),
    ("bv", 3, "forward"): ("violated", 2),
    ("bv", 3, "backward"): ("violated", 8),
    ("bv", 4, "forward"): ("violated", 2),
    ("bv", 4, "backward"): ("violated", 16),
}
