package hddcart

import (
	"strings"
	"testing"
)

// TestMonitorRefusesBinnedSnapshot: monitors no longer score binned
// codes, but snapshots written by one that did carry "binned": true in
// their fingerprint. Restore must refuse them — the windows hold scores
// from a different scoring path — and leave the target cold and usable,
// so the caller counts a cold start instead of silently adopting them.
func TestMonitorRefusesBinnedSnapshot(t *testing.T) {
	src := newTestMonitor(t, 3, false)
	feedRamp(src, "drive-a", 8, 2)
	snap := encodeString(t, src)
	if strings.Contains(snap, `"binned"`) {
		t.Fatalf("float monitor encoded a binned field: %s", snap)
	}
	binned := strings.Replace(snap, `"bad_sample_budget":`, `"binned":true,"bad_sample_budget":`, 1)
	if binned == snap {
		t.Fatal("fixture: no fingerprint field to splice the binned flag next to")
	}

	m := newTestMonitor(t, 3, false)
	if err := m.RestoreSnapshot(strings.NewReader(binned)); err == nil {
		t.Fatal("restore accepted a binned-scoring snapshot")
	}
	if m.Stats().Observed != 0 || m.Outstanding() != 0 {
		t.Fatal("refused restore left state behind")
	}
	if err := m.RestoreSnapshot(strings.NewReader(snap)); err != nil {
		t.Fatalf("refused restore left the monitor unusable: %v", err)
	}
}
