"""The query service: the :class:`~repro.engine.database.Database`
facade served over HTTP (docs/SERVICE.md).

Three layers, stdlib only:

- :mod:`repro.service.protocol` — the JSON request/response schemas,
  canonical answer serialization (byte-stable: the concurrency
  differential tests compare *encoded* answers), and the error
  taxonomy mapping engine exceptions to typed HTTP statuses.
- :mod:`repro.service.app` — named document stores, the
  :class:`QueryService` application object with per-request
  observability middleware, and the threaded HTTP server.
- :mod:`repro.service.resilience` — overload protection and lifecycle:
  admission control (shed as 429 + ``Retry-After``), deadline
  propagation, per-store circuit breakers, and graceful drain
  (docs/SERVICE.md "Overload & lifecycle").
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".app": ["QueryService", "StoreRegistry", "make_server", "serve"],
    ".resilience": [
        "AdmissionController", "BreakerBoard", "CircuitBreaker", "CircuitOpenError",
        "DeadlineClock", "DeadlineExceededError", "DrainingError", "OverloadedError",
    ],
    ".protocol": [
        "ServiceError", "decode_answer", "encode_answer", "error_payload",
        "stats_payload", "validate_query_request",
    ],
})
