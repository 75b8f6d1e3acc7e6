"""Oracle-network application layer: the SMR (blockchain) channel, the
multi-epoch oracle service (the one in-process oracle round: agree, attest,
submit, on any engine) and the client-facing HTTP/WebSocket gateway."""

from repro.oracle.smr import SMRChannel, SMREntry
from repro.oracle.service import (
    EpochNode,
    EpochReport,
    OracleService,
    ServiceResult,
    build_service,
)
from repro.oracle.gateway import OracleGateway, build_gateway
from repro.oracle.clients import GatewaySubscriber, http_request

__all__ = [
    "EpochNode",
    "EpochReport",
    "GatewaySubscriber",
    "OracleGateway",
    "OracleService",
    "SMRChannel",
    "SMREntry",
    "ServiceResult",
    "build_gateway",
    "build_service",
    "http_request",
]
