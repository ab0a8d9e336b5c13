"""Platform ports of the system contracts for Corda-like and Quorum-like networks.

"To extend our protocol to other permissioned blockchains, the relay
service ... can be directly reused ... The system contracts need
platform-specific implementations. ... The functions served by these
contracts will remain the same" (§5).

:class:`InteropPort` re-implements the ECC + CMDAC *functions* (access
rules over ``<network, org, contract, function>`` tuples, foreign-config
records, verification policies) as a node-attached service, which is how
a platform without Fabric-style chaincode would host them. What it holds
is platform-specific; the access decision is not:
:meth:`InteropPort.check_access` hands its recorded roots and rule set to the
same :func:`repro.interop.access.authorise` the Fabric ECC runs. Response
sealing (ECC ``SealResponse`` on Fabric) is
:func:`repro.interop.proofs.attest_reply` here. The Fabric implementation
lives in :mod:`repro.interop.contracts.ecc` / ``cmdac`` as real chaincode.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.interop.access import authorise
from repro.interop.contracts.cmdac import org_roots_from_config
from repro.interop.policy import parse_verification_policy
from repro.proto.messages import AuthInfo, NetworkConfigMsg


class InteropPort:
    """Exposure-control + configuration-management state for one network.

    The same rule granularity and semantics as the Fabric ECC/CMDAC, held
    in platform-native service state (e.g. Corda network parameters or a
    Quorum precompile) rather than chaincode world state.
    """

    def __init__(self, network_id: str) -> None:
        self.network_id = network_id
        self._rules: set[tuple[str, str, str, str]] = set()
        self._foreign_configs: dict[str, NetworkConfigMsg] = {}
        self._verification_policies: dict[str, str] = {}

    # -- configuration management (CMDAC functions) ------------------------------

    def record_network_config(self, config: NetworkConfigMsg) -> None:
        if not config.network_id:
            raise ConfigurationError("network config carries no network id")
        org_roots_from_config(config)  # reject malformed roots early
        self._foreign_configs[config.network_id] = config

    def get_network_config(self, network_id: str) -> NetworkConfigMsg:
        config = self._foreign_configs.get(network_id)
        if config is None:
            raise ConfigurationError(
                f"no configuration recorded for foreign network {network_id!r}"
            )
        return config

    def set_verification_policy(self, network_id: str, expression: str) -> None:
        parse_verification_policy(expression)
        self._verification_policies[network_id] = expression

    def get_verification_policy(self, network_id: str) -> str:
        expression = self._verification_policies.get(network_id)
        if expression is None:
            raise ConfigurationError(
                f"no verification policy recorded for network {network_id!r}"
            )
        return expression

    # -- exposure control (ECC functions) --------------------------------------------

    def add_access_rule(
        self, network: str, org: str, contract: str, function: str
    ) -> None:
        self._rules.add((network, org, contract, function))

    def remove_access_rule(
        self, network: str, org: str, contract: str, function: str
    ) -> None:
        self._rules.discard((network, org, contract, function))

    def list_access_rules(self) -> list[tuple[str, str, str, str]]:
        return sorted(self._rules)

    def check_access(self, auth: AuthInfo | None, contract: str, obj: str) -> None:
        """The port's access gate: :func:`repro.interop.access.authorise`
        against the recorded configurations and this port's rules."""
        config = self._foreign_configs.get(auth.requesting_network) if auth else None
        authorise(
            auth,
            org_roots_from_config(config) if config else None,
            self._rules.__contains__,
            contract,
            obj,
        )
