package analysis

import (
	"fmt"
	"strings"

	"repro/internal/inject"
)

// RenderAll produces the full evaluation report for a stored result
// set: Figure 4, Figure 6, Figure 7, Figure 8, Table 5 and the case
// studies — everything derivable from the results alone.
func RenderAll(rs *ResultSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Injection study (seed %d, workload scale %d)\n", rs.Seed, rs.Scale)
	if rs.FaultModel != "" {
		// Bitflip (the pre-model default) stays unlabeled so its report
		// is byte-identical to every report rendered before fault
		// models existed.
		fmt.Fprintf(&b, "fault model: %s\n", rs.FaultModel)
	}
	fmt.Fprintf(&b, "total injections: %d\n", len(rs.All()))
	if n := rs.QuarantinedCount(); n > 0 {
		fmt.Fprintf(&b, "quarantined (harness faults, excluded from all tables): %d —", n)
		for _, key := range []string{"A", "B", "C"} {
			if ords := rs.Quarantined[key]; len(ords) > 0 {
				fmt.Fprintf(&b, " %s:%v", key, ords)
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")

	for _, key := range []string{"A", "B", "C"} {
		results := rs.Results[key]
		if len(results) == 0 {
			continue
		}
		c, _ := CampaignFromKey(key)
		b.WriteString(RenderOutcomeTable(fmt.Sprintf("Figure 4 — campaign %v", c),
			OutcomeTable(results)))
		b.WriteString("\n")
	}
	for _, key := range []string{"A", "B", "C"} {
		results := rs.Results[key]
		if len(results) == 0 {
			continue
		}
		c, _ := CampaignFromKey(key)
		b.WriteString(RenderCauses(fmt.Sprintf("Figure 6 — campaign %v", c),
			CrashCauses(results)))
		b.WriteString("\n")
	}
	for _, key := range []string{"A", "B", "C"} {
		results := rs.Results[key]
		if len(results) == 0 {
			continue
		}
		c, _ := CampaignFromKey(key)
		b.WriteString(RenderLatency(fmt.Sprintf("Figure 7 — campaign %v", c),
			Latency(results)))
		b.WriteString("\n")
	}
	for _, key := range []string{"A", "B", "C"} {
		results := rs.Results[key]
		if len(results) == 0 {
			continue
		}
		c, _ := CampaignFromKey(key)
		fmt.Fprintf(&b, "Figure 8 — campaign %v\n", c)
		prop := Propagation(results)
		for _, sub := range Subsystems {
			if row := prop[sub]; row != nil {
				b.WriteString(RenderPropagation(row))
			}
		}
		b.WriteString("\n")
	}

	all := rs.All()
	b.WriteString(RenderTopCrashFunctions(all))
	b.WriteString("\n")
	if hangs := HangLocations(all); len(hangs) > 0 {
		b.WriteString("hang locations (subsystem the watchdog caught the CPU in):\n")
		for _, sub := range append([]string{""}, Subsystems...) {
			if n := hangs[sub]; n > 0 {
				name := sub
				if name == "" {
					name = "outside-text"
				}
				fmt.Fprintf(&b, "  %-12s %5d\n", name, n)
			}
		}
		b.WriteString("\n")
	}
	fsv := FSVBreakdown(all)
	if fsv.Total() > 0 {
		fmt.Fprintf(&b, "fail-silence oracle split: trace-only=%d disk-only=%d both=%d\n\n",
			fsv.TraceOnly, fsv.DiskOnly, fsv.Both)
	}
	b.WriteString(RenderSevere(all))
	b.WriteString("\n")
	sev := SeverityCounts(all)
	fmt.Fprintf(&b, "severity of activated errors: normal=%d severe=%d most-severe=%d (no damage=%d)\n",
		sev[inject.SeverityNormal], sev[inject.SeveritySevere],
		sev[inject.SeverityMost], sev[inject.SeverityNone])
	b.WriteString(AvailabilityNote(sev))
	b.WriteString("\n")

	b.WriteString(RenderTable6(rs.Results["B"], 3))
	b.WriteString("\n")
	b.WriteString(RenderTable7(all))
	return b.String()
}
