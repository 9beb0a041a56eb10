"""Tests for RAID group failure semantics."""

import pytest

from repro.errors import ReproError
from repro.raid.array import DriveState, RaidLevel, evaluate_group


def good(serial, latent=False):
    return DriveState(serial=serial, has_latent_errors=latent)


def failing(serial, hour, latent=False, lead=None):
    return DriveState(serial=serial, failure_hour=hour,
                      has_latent_errors=latent, warning_lead_hours=lead)


def test_no_failures_no_loss():
    members = [good(f"d{i}") for i in range(8)]
    outcome = evaluate_group(members, RaidLevel.RAID5)
    assert not outcome.data_loss
    assert outcome.n_failures == 0


def test_single_clean_failure_survives_raid5():
    members = [failing("f", 100)] + [good(f"d{i}") for i in range(7)]
    outcome = evaluate_group(members, RaidLevel.RAID5)
    assert not outcome.data_loss
    assert outcome.n_failures == 1


def test_latent_error_during_rebuild_defeats_raid5():
    """The paper's Section I scenario."""
    members = ([failing("f", 100)] + [good("lat", latent=True)]
               + [good(f"d{i}") for i in range(6)])
    outcome = evaluate_group(members, RaidLevel.RAID5)
    assert outcome.data_loss
    assert outcome.loss_cause == "latent_error"


def test_latent_error_survives_raid6_single_failure():
    members = ([failing("f", 100)] + [good("lat", latent=True)]
               + [good(f"d{i}") for i in range(6)])
    outcome = evaluate_group(members, RaidLevel.RAID6)
    assert not outcome.data_loss


def test_overlapping_double_failure_defeats_raid5():
    members = ([failing("f1", 100), failing("f2", 105)]
               + [good(f"d{i}") for i in range(6)])
    outcome = evaluate_group(members, RaidLevel.RAID5,
                             reconstruction_hours=12.0)
    assert outcome.data_loss
    assert outcome.loss_cause == "double_failure"


def test_spaced_double_failure_survives_raid5():
    members = ([failing("f1", 100), failing("f2", 400)]
               + [good(f"d{i}") for i in range(6)])
    outcome = evaluate_group(members, RaidLevel.RAID5,
                             reconstruction_hours=12.0)
    assert not outcome.data_loss
    assert outcome.n_failures == 2


def test_raid6_needs_triple_overlap():
    double = ([failing("f1", 100), failing("f2", 105)]
              + [good(f"d{i}") for i in range(6)])
    assert not evaluate_group(double, RaidLevel.RAID6).data_loss
    triple = ([failing("f1", 100), failing("f2", 105), failing("f3", 108)]
              + [good(f"d{i}") for i in range(5)])
    outcome = evaluate_group(triple, RaidLevel.RAID6)
    assert outcome.data_loss
    assert outcome.loss_cause == "double_failure"


def test_raid6_double_failure_plus_latent_loses():
    members = ([failing("f1", 100), failing("f2", 105),
                good("lat", latent=True)]
               + [good(f"d{i}") for i in range(5)])
    outcome = evaluate_group(members, RaidLevel.RAID6)
    assert outcome.data_loss
    assert outcome.loss_cause == "latent_error"


def test_proactive_migration_averts_loss():
    members = ([failing("f", 100, lead=48.0), good("lat", latent=True)]
               + [good(f"d{i}") for i in range(6)])
    reactive = evaluate_group(members, RaidLevel.RAID5, proactive=False)
    proactive = evaluate_group(members, RaidLevel.RAID5, proactive=True)
    assert reactive.data_loss
    assert not proactive.data_loss
    assert proactive.n_proactive_migrations == 1


def test_short_warning_cannot_be_acted_on():
    members = ([failing("f", 100, lead=2.0), good("lat", latent=True)]
               + [good(f"d{i}") for i in range(6)])
    outcome = evaluate_group(members, RaidLevel.RAID5, proactive=True,
                             migration_hours=6.0)
    assert outcome.data_loss
    assert outcome.n_proactive_migrations == 0


def test_group_size_validation():
    with pytest.raises(ReproError):
        evaluate_group([good("a"), good("b")], RaidLevel.RAID6)
    with pytest.raises(ReproError):
        evaluate_group([good(f"d{i}") for i in range(4)], RaidLevel.RAID5,
                       reconstruction_hours=0.0)
