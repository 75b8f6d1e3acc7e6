"""Tests for the DORA attestation step, the SMR channel and one oracle
round run as an oracle-service epoch."""

import pytest

from repro.adversary.strategies import CrashStrategy
from repro.analysis.parameters import derive_parameters
from repro.core.dora import DoraCertificate, DoraNode
from repro.crypto.signatures import SignatureScheme
from repro.errors import CertificateShortfall, ConfigurationError
from repro.oracle.service import OracleService
from repro.oracle.smr import SMRChannel

from helpers import run_nodes


@pytest.fixture
def dora_run(make_delphi_params):
    """Build and run one DORA instance; parameters come from the shared
    ``make_delphi_params`` factory fixture (see ``tests/conftest.py``)."""

    def _run(values, params=None, byzantine=None, seed=0):
        params = params or make_delphi_params(n=len(values))
        scheme = SignatureScheme(num_nodes=params.n)
        nodes = {
            i: DoraNode(node_id=i, params=params, value=values[i], scheme=scheme)
            for i in range(params.n)
        }
        result = run_nodes(nodes, byzantine=byzantine, seed=seed)
        return nodes, result, params, scheme

    return _run


class TestDoraNode:
    def test_all_nodes_produce_certificates(self, dora_run):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        nodes, result, params, scheme = dora_run(values)
        assert result.all_honest_decided
        for node in nodes.values():
            certificate = node.certificate
            assert isinstance(certificate, DoraCertificate)
            assert certificate.signer_count >= params.t + 1
            assert scheme.verify_aggregate(
                certificate.value, certificate.aggregate, threshold=params.t + 1
            )

    def test_certified_values_on_adjacent_epsilon_multiples(self, dora_run):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        nodes, _, params, _ = dora_run(values)
        certified = {node.certificate.value for node in nodes.values()}
        assert len(certified) <= 2
        for value in certified:
            assert value / params.epsilon == pytest.approx(round(value / params.epsilon))

    def test_rounded_outputs_near_honest_inputs(self, dora_run):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        nodes, _, params, _ = dora_run(values)
        delta = max(values) - min(values)
        slack = max(params.rho0, delta) + params.epsilon
        for node in nodes.values():
            assert min(values) - slack <= node.certificate.value <= max(values) + slack

    def test_crash_faults_tolerated(self, dora_run):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        byz = {6: CrashStrategy()}
        nodes, result, params, _ = dora_run(values, byzantine=byz)
        assert result.all_honest_decided
        certified = {nodes[i].certificate.value for i in range(6)}
        assert len(certified) <= 2

    def test_scheme_size_mismatch_rejected(self, make_delphi_params):
        params = make_delphi_params(n=4)
        with pytest.raises(ConfigurationError):
            DoraNode(0, params, value=1.0, scheme=SignatureScheme(num_nodes=5))

    def test_report_verification_cost_is_symmetric(self, make_delphi_params):
        params = make_delphi_params(n=4)
        node = DoraNode(0, params, value=1.0, scheme=SignatureScheme(num_nodes=4))
        from repro.net.message import Message

        assert node.processing_cost(Message("dora", "REPORT", None, None)) == 1.0
        assert node.processing_cost(Message("delphi", "BUNDLE", None, None)) == 0.0


class TestByzantineReportPayloads:
    """Regression: _on_report called float(value) on unvalidated payloads —
    a non-numeric Byzantine report crashed the honest receiver."""

    @pytest.fixture
    def honest_node(self, make_delphi_params):
        params = make_delphi_params(n=4)
        scheme = SignatureScheme(num_nodes=params.n)
        node = DoraNode(0, params, value=1.0, scheme=scheme)
        return node, params, scheme

    def _report(self, payload):
        from repro.net.message import Message

        return Message("dora", "REPORT", None, payload)

    def test_non_numeric_report_is_discarded_not_crashed(self, honest_node):
        node, _params, scheme = honest_node
        signature = scheme.sign(1, "bogus")
        # Pre-fix this raised ValueError out of float("bogus").
        assert node.on_message(1, self._report(["bogus", signature])) == []
        assert node._signatures == {}

    @pytest.mark.parametrize(
        "junk", [None, [1.0], {"v": 1.0}, float("nan"), float("inf"), True]
    )
    def test_malformed_values_rejected(self, honest_node, junk):
        node, _params, scheme = honest_node
        signature = scheme.sign(1, junk)
        assert node.on_message(1, self._report([junk, signature])) == []
        assert node._signatures == {}

    def test_off_grid_value_rejected_even_with_valid_signature(self, honest_node):
        node, params, scheme = honest_node
        off_grid = params.epsilon * 1.5
        signature = scheme.sign(1, off_grid)
        assert node.on_message(1, self._report([off_grid, signature])) == []
        assert node._signatures == {}

    def test_on_grid_signed_report_recorded(self, honest_node):
        node, params, scheme = honest_node
        value = params.epsilon * 2
        signature = scheme.sign(1, value)
        node.on_message(1, self._report([value, signature]))
        assert node._signatures == {value: {1: signature}}

    def test_bogus_report_adversary_does_not_stall_the_network(self, dora_run):
        from repro.adversary.strategies import BogusPayloadStrategy

        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        byz = {6: BogusPayloadStrategy()}
        nodes, result, params, _ = dora_run(values, byzantine=byz)
        assert result.all_honest_decided
        certified = {nodes[i].certificate.value for i in range(6)}
        assert len(certified) <= 2


class TestSMRChannel:
    def test_orders_submissions(self):
        chain = SMRChannel()
        chain.submit(0, "a")
        chain.submit(1, "b")
        assert [entry.payload for entry in chain.entries] == ["a", "b"]
        assert chain.first_valid().payload == "a"

    def test_validator_filters_invalid_entries(self):
        chain = SMRChannel(validator=lambda payload: payload == "good")
        chain.submit(0, "bad")
        chain.submit(1, "good")
        assert chain.first_valid().payload == "good"
        assert chain.validations == 2

    def test_first_valid_since_skips_earlier_entries(self):
        chain = SMRChannel(validator=lambda payload: payload != "bad")
        chain.submit(0, "old")
        mark = len(chain.entries)
        chain.submit(1, "bad")
        chain.submit(2, "new")
        assert chain.first_valid().payload == "old"
        assert chain.first_valid(since=mark).payload == "new"
        assert chain.first_valid(since=len(chain.entries)) is None

    def test_consume_returns_the_first_valid_submission_of_its_round(self):
        chain = SMRChannel(validator=lambda payload: payload != "bad")
        assert chain.consume([(0, "bad"), (1, "a"), (2, "b")]) == "a"
        assert [entry.submitter for entry in chain.entries] == [0, 1, 2]
        assert chain.validations == 3

    def test_consume_never_returns_an_earlier_rounds_entry(self):
        chain = SMRChannel(validator=lambda payload: payload != "bad")
        assert chain.consume([(0, "old")]) == "old"
        assert chain.consume([(1, "bad"), (2, "new")]) == "new"
        with pytest.raises(CertificateShortfall):
            chain.consume([(3, "bad")])  # "old" and "new" do not count

    def test_consume_without_a_valid_submission_is_a_shortfall(self):
        chain = SMRChannel(validator=lambda payload: False)
        with pytest.raises(CertificateShortfall) as raised:
            chain.consume([(0, "x"), (1, "y")])
        assert isinstance(raised.value, ConfigurationError)  # what callers catch
        with pytest.raises(CertificateShortfall):
            chain.consume([])
        assert len(chain.entries) == 2

    def test_distinct_valid_payload_count(self):
        chain = SMRChannel()
        chain.submit(0, 10.0)
        chain.submit(1, 10.0)
        chain.submit(2, 12.0)
        assert chain.distinct_valid_payloads == 2


class _Epochs:
    """A workload serving the given inputs, one list per epoch."""

    def __init__(self, *epochs):
        self._epochs = iter(epochs)

    def epoch_inputs(self, n):
        return next(self._epochs)


class TestOracleRound:
    """One oracle round (agree, attest, submit) is an ``OracleService`` epoch."""

    def test_end_to_end_report_round(self, make_delphi_params):
        params = make_delphi_params(n=4, epsilon=1.0, delta_max=16.0)
        service = OracleService(params, _Epochs([10.2, 10.6, 10.9, 10.4]), engine="fast")
        report = service.run_epoch()
        assert report.certificate.signer_count >= params.t + 1
        assert 10.2 - 2.0 <= report.value <= 10.9 + 2.0
        assert report.runtime_seconds > 0
        assert report.megabytes > 0
        outputs = report.honest_outputs.values()
        assert max(outputs) - min(outputs) <= params.epsilon + 1e-9

    def test_at_most_two_distinct_report_values_reach_the_chain(self, make_delphi_params):
        params = make_delphi_params(n=4, epsilon=1.0, delta_max=16.0)
        service = OracleService(params, _Epochs([10.2, 10.6, 10.9, 10.4]), engine="fast")
        service.run_epoch()
        values = {
            entry.payload.value for entry in service.chain.entries if entry.valid
        }
        assert len(values) <= 2

    def test_each_round_consumes_its_own_certificate(self, make_delphi_params):
        """Regression: every round after the first used to return epoch 0's
        certificate, because the consumed entry was searched from position 0."""
        params = make_delphi_params(n=4, epsilon=1.0, delta_max=16.0)
        rounds = ([10.2, 10.6, 10.9, 10.4], [20.2, 20.6, 20.9, 20.4])
        service = OracleService(params, _Epochs(*rounds), engine="fast")
        reports = service.serve(2).reports
        assert reports[0].value != reports[1].value
        for report, inputs in zip(reports, rounds):
            assert report.value in report.honest_outputs.values()
            assert min(inputs) - 2.0 <= report.value <= max(inputs) + 2.0
            assert report.certificate.value == report.value
        first, second = (report.certificate for report in reports)
        assert service.chain.first_valid().payload is first
        assert service.chain.first_valid(since=params.n).payload is second

    def test_measurement_count_checked(self, make_delphi_params):
        params = make_delphi_params(n=4)
        service = OracleService(params, _Epochs([1.0, 2.0]), engine="fast")
        with pytest.raises(ConfigurationError):
            service.run_epoch()

    def test_crash_fault_round(self, make_delphi_params):
        params = make_delphi_params(n=7, epsilon=1.0, delta_max=16.0)
        service = OracleService(
            params,
            _Epochs([10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]),
            engine="fast",
            churn_plan={0: (6,)},
        )
        report = service.run_epoch()
        assert report.offline_nodes == (6,)
        assert report.certificate.signer_count >= params.t + 1
        assert 6 not in report.certificate.aggregate.signers
