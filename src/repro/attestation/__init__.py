"""Attestation: measurements, MAC'd reports, remote-attestation protocol.

SMART's report format is followed closely: "an attestation report
containing the HMAC of the memory region, input parameters, a nonce and an
after-attestation destination address".  The same machinery backs the SGX
and TrustZone models' attestation (with their own keys and measurement
scopes).
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "measure": ("Measurement", "measure_memory"),
    "report": ("AttestationReport",),
    "protocol": ("RemoteVerifier", "VerificationResult"),
    "cfa": ("ControlFlowAttestor", "expected_path_hash", "hash_cflow_trace"),
})
