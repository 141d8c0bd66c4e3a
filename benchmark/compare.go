package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareWith holds this run's end-to-end metrics against an earlier
// -out file, per metric x workload. A pair is a regression when the
// new median is worse than the old by more than the metric's bound; it
// is unresolved — neither a regression nor a pass — when either run's
// interquartile spread exceeds the bound, because the medians then
// cannot be told apart.
func compareWith(path string, cur report) (regressed bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var old report
	if err := json.Unmarshal(b, &old); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	if old.Header.Seed != cur.Header.Seed || old.Header.GOMAXPROCS != cur.Header.GOMAXPROCS {
		fmt.Printf("# compare: headers differ (old seed=%d GOMAXPROCS=%d): the runs are not comparable like for like\n",
			old.Header.Seed, old.Header.GOMAXPROCS)
	}
	oldBy := make(map[string]metric)
	for _, r := range old.Results {
		for _, m := range r.Metrics {
			oldBy[r.Workload+"/"+m.Name] = m
		}
	}
	fmt.Println("# compare: workload metric old new worse_by bound verdict")
	for _, r := range cur.Results {
		for _, m := range r.Metrics {
			o, ok := oldBy[r.Workload+"/"+m.Name]
			if !ok || m.Bound == 0 || o.Value == 0 {
				continue
			}
			verdict := verdictOf(o, m)
			if verdict == "REGRESSION" {
				regressed = true
			}
			fmt.Printf("compare %s %s %.6g %.6g %+.1f%% %.0f%% %s\n",
				r.Workload, m.Name, o.Value, m.Value, 100*worseBy(o, m), 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}

// worseBy is how much worse cur is than old as a share of old's
// median, signed so that positive is worse whatever the direction.
func worseBy(old, cur metric) float64 {
	d := (cur.Value - old.Value) / old.Value
	if cur.Better == "higher" {
		d = -d
	}
	return d
}

func iqrShare(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	s := (m.Q3 - m.Q1) / m.Value
	if s < 0 {
		s = -s
	}
	return s
}

func verdictOf(old, cur metric) string {
	if max(iqrShare(old), iqrShare(cur)) > cur.Bound {
		return "unresolved"
	}
	if worseBy(old, cur) > cur.Bound {
		return "REGRESSION"
	}
	return "ok"
}
