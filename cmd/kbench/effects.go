package main

import "strings"

// effect states, before any measurement, which end-to-end metric a
// per-layer metric should move and on which workloads: a change to that
// layer should show there and nowhere else. BENCHMARK.json's per_layer
// entries carry only name, unit and better, so the claim lives here;
// the schema test requires one for every per-layer metric.
type effect struct {
	prefix string // per-layer metric name or name prefix; longest wins
	moves  string // end-to-end metric
	on     []string
}

var (
	allWorkloads = []string{"sub8-serial", "campB-full-serial", "syscall-s3-serial", "sub8-process2", "sub8-fleet2"}
	serialOnly   = []string{"sub8-serial", "campB-full-serial", "syscall-s3-serial"}
	fullRuns     = []string{"sub8-serial", "syscall-s3-serial"} // dominated by full runs
	replayHeavy  = []string{"campB-full-serial"}
	parallel     = []string{"sub8-process2", "sub8-fleet2"}
	processOnly  = []string{"sub8-process2"}
	fleetOnly    = []string{"sub8-fleet2"}
)

var effects = []effect{
	{"core.new_s", "setup_s", allWorkloads},
	{"core.targets_s", "setup_s", allWorkloads},
	{"core.retries", "inj_per_s", replayHeavy},
	{"core.reboots", "inj_per_s", replayHeavy},
	{"inject.", "inj_per_s", serialOnly},
	// Checkpoint replay: moves campB, and leaves syscall-s3 (no
	// checkpoints) unchanged.
	{"inject.run.sibling", "inj_per_s", replayHeavy},
	{"inject.sibling_frac", "inj_per_s", replayHeavy},
	{"kernel.golden_ms", "setup_s", allWorkloads},
	{"kernel.full_run", "inj_per_s", fullRuns},
	{"cpu.", "inj_per_s", fullRuns},
	{"kernel.disk_image", "inj_per_s", fullRuns},
	{"ext2.", "inj_per_s", fullRuns},
	{"journal.put", "inj_per_s", serialOnly},
	{"journal.flushes", "cpu_s_per_kinj", allWorkloads},
	{"journal.bytes_per_result", "cpu_s_per_kinj", allWorkloads},
	{"journal.close_ms", "wall_s", fleetOnly},
	{"journal.read_s", "wall_s", fleetOnly},
	{"analysis.save_s", "wall_s", fleetOnly},
	// The frame codec: moves the parallel executors, leaves the serial
	// ones unchanged.
	{"wire.", "inj_per_s", parallel},
	{"supervisor.", "inj_per_s", processOnly},
	{"supervisor.first_do_s", "wall_s", processOnly},
	{"queue.", "inj_per_s", fleetOnly},
	{"fleet.", "inj_per_s", fleetOnly},
	{"kampaignd.", "wall_s", fleetOnly},
	// Tracing is off in the e2e runs; the overhead is what the traced
	// campaign costs over the untraced one.
	{"trace.overhead_pct", "inj_per_s", serialOnly},
}

// effectOf returns the longest-prefix effect of a per-layer metric.
func effectOf(metric string) (effect, bool) {
	var best effect
	found := false
	for _, e := range effects {
		if strings.HasPrefix(metric, e.prefix) && (!found || len(e.prefix) > len(best.prefix)) {
			best, found = e, true
		}
	}
	return best, found
}
