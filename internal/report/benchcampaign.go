package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// BenchCampaignEntry mirrors the schema of BENCH_campaign.json, the
// machine-readable trajectory `make bench-campaign` appends to (see
// campaign_bench_test.go for the writer).
type BenchCampaignEntry struct {
	Bench       string  `json:"bench"`
	Mode        string  `json:"mode"` // "local" | "fleet"
	MsPerCell   float64 `json:"ms_per_cell"`
	WallMs      float64 `json:"wall_ms"`
	Cells       int     `json:"cells"`
	Workers     int     `json:"workers"`
	Utilization float64 `json:"utilization"`
	Steals      int     `json:"steals"`
	Requeues    int64   `json:"requeues"`
	GitSHA      string  `json:"git_sha"`
	Timestamp   string  `json:"timestamp"`
}

// BenchCampaign renders a bench-campaign trajectory as a Markdown
// section: every recorded entry in order (newest last), then — when
// both modes have entries — the fleet transport's per-core overhead
// over the local work-stealing drain, from the newest entry of each.
func BenchCampaign(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []BenchCampaignEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("%s: no recorded entries", path)
	}

	fmt.Fprintf(w, "## Campaign drain (`make bench-campaign`)\n\n")
	fmt.Fprintf(w, "| mode | ms/cell | per-core ms | cells | workers | util | steals | requeues | commit | recorded |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	latest := map[string]BenchCampaignEntry{}
	for _, e := range entries {
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %d | %d | %.2f | %d | %d | %s | %s |\n",
			e.Mode, e.MsPerCell, e.MsPerCell*float64(e.Workers),
			e.Cells, e.Workers, e.Utilization, e.Steals, e.Requeues, e.GitSHA, e.Timestamp)
		latest[e.Mode] = e
	}
	if lo, ok := latest["local"]; ok {
		if fl, ok := latest["fleet"]; ok && lo.MsPerCell > 0 {
			loCore := lo.MsPerCell * float64(lo.Workers)
			flCore := fl.MsPerCell * float64(fl.Workers)
			fmt.Fprintf(w, "\nFleet transport overhead: %.2fx per core (local %.1f ms/cell, fleet %.1f ms/cell); curves are bit-identical either way.\n",
				flCore/loCore, loCore, flCore)
		}
	}
	return nil
}
