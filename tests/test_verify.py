"""The rows of `qrwe.verify`: a check that `--qmax` empties prints one
SKIP row per label its rows carry."""

from qrwe import verify

# the checks with no q-list to cap
UNCAPPED = (verify.checks_classnumbers, verify.checks_traces_dimension_zero,
            verify.checks_traces_eta)


def test_each_check_skips_exactly_the_labels_its_rows_carry():
    # qmax = 2 empties every q-list; qmax = 7 leaves each list a q but the
    # duals', which need 81 for the truncated rows
    for fn in verify.SUITES["all"]:
        if fn in UNCAPPED:
            continue
        skipped = {label.rsplit(": none of its q is <= 2", 1)[0]
                   for label, ok in fn(qmax=2) if ok is None}
        carried = {label.rsplit(" at ", 1)[0]
                   for label, _ in fn(qmax=81 if fn is verify.checks_duals else 7)}
        assert skipped == carried, fn.__name__
