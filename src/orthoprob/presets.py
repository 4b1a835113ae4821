"""Small built-in constructions used by the CLI demos and the test suite."""

from __future__ import annotations

import numpy as np

from .events import QuantumAlgebra, QuantumEvent
from .states import DensityState


def half_transition_pair() -> tuple[QuantumAlgebra, QuantumEvent, QuantumEvent]:
    """A rank-2 projection pair on C^4 with a state-independent conditional.

    E projects on the first two coordinates, F on the diagonal plane
    spanned by (e1+e3)/sqrt(2) and (e2+e4)/sqrt(2); compressing F by E
    gives exactly E/2, so the conditional probability of F after E is 1/2
    in every state.
    """
    alg = QuantumAlgebra(4)
    e = alg.event(np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128))
    f = alg.event(0.5 * np.array([[1, 0, 1, 0],
                                  [0, 1, 0, 1],
                                  [1, 0, 1, 0],
                                  [0, 1, 0, 1]], dtype=np.complex128))
    return alg, e, f


def order_dependence_example() -> tuple[QuantumAlgebra, DensityState,
                                        QuantumEvent, QuantumEvent, QuantumEvent]:
    """Two test events on C^3 whose conditioning order flips the answer.

    With the maximally mixed state, conditioning on F1 (the e1 axis) and
    then F2 (the diagonal between e1 and e2) leaves probability 1/2 for E
    (the e2 axis); the reverse order leaves probability 0.
    """
    alg = QuantumAlgebra(3)
    f1 = alg.event_from_span([np.array([1.0, 0.0, 0.0])])
    f2 = alg.event_from_span([np.array([1.0, 1.0, 0.0])])
    e = alg.event_from_span([np.array([0.0, 1.0, 0.0])])
    mixed = DensityState(np.eye(3, dtype=np.complex128) / 3.0)
    return alg, mixed, f1, f2, e
