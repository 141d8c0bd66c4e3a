package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Spec syntax: a comma-separated list of key=value terms, usable as a
// -faults flag or the GRAVEL_FAULTS environment variable.
//
//	seed=7,drop=0.02,dup=0.01,delay=0.2:5ms,reorder=0.01,
//	corrupt=0.005,stall=0.001:200ms,sever=0.002:1,
//	blackout=2@1s+500ms,part=0>1@2s+1s
//
//	seed=N          run seed (replays the schedule)
//	drop=P          per-frame drop probability
//	dup=P           per-frame duplicate probability
//	reorder=P       per-frame one-place reorder probability
//	corrupt=P       per-frame payload byte-flip probability
//	delay=P:D       with probability P sleep uniform (0, D]
//	stall=P:D       with probability P freeze the conn for D
//	sever=P[:MAX]   with probability P close the conn (≤ MAX per link)
//	blackout=N@S+D  node N off the network from S for D
//	part=A>B@S+D    directed link A→B cut from S for D
func Parse(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" || spec == "none" {
		return nil, nil
	}
	cfg := &Config{}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("fault: term %q is not key=value", term)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 10, 64)
		case "drop":
			cfg.Drop, err = parseProb(val)
		case "dup":
			cfg.Dup, err = parseProb(val)
		case "reorder":
			cfg.Reorder, err = parseProb(val)
		case "corrupt":
			cfg.Corrupt, err = parseProb(val)
		case "delay":
			cfg.Delay, cfg.DelayMax, err = parseProbDur(val, 5*time.Millisecond)
		case "stall":
			cfg.Stall, cfg.StallFor, err = parseProbDur(val, 100*time.Millisecond)
		case "sever":
			p, rest, cut := strings.Cut(val, ":")
			cfg.Sever, err = parseProb(p)
			if err == nil && cut {
				cfg.SeverMax, err = strconv.Atoi(rest)
			}
		case "blackout":
			var b Blackout
			b, err = parseBlackout(val)
			cfg.Blackouts = append(cfg.Blackouts, b)
		case "part", "partition":
			var p Partition
			p, err = parsePartition(val)
			cfg.Partitions = append(cfg.Partitions, p)
		default:
			return nil, fmt.Errorf("fault: unknown term %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: term %q: %w", term, err)
		}
	}
	return cfg, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("probability %v out of [0,1]", p)
	}
	return p, nil
}

func parseProbDur(s string, defDur time.Duration) (float64, time.Duration, error) {
	ps, ds, cut := strings.Cut(s, ":")
	p, err := parseProb(ps)
	if err != nil {
		return 0, 0, err
	}
	d := defDur
	if cut {
		d, err = time.ParseDuration(ds)
		if err != nil {
			return 0, 0, err
		}
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("non-positive duration %v", d)
	}
	return p, d, nil
}

// parseWindow parses "S+D" into start and duration.
func parseWindow(s string) (time.Duration, time.Duration, error) {
	ss, ds, ok := strings.Cut(s, "+")
	if !ok {
		return 0, 0, fmt.Errorf("window %q is not start+duration", s)
	}
	start, err := time.ParseDuration(ss)
	if err != nil {
		return 0, 0, err
	}
	dur, err := time.ParseDuration(ds)
	if err != nil {
		return 0, 0, err
	}
	if start < 0 || dur <= 0 {
		return 0, 0, fmt.Errorf("bad window %q", s)
	}
	return start, dur, nil
}

func parseBlackout(s string) (Blackout, error) {
	ns, ws, ok := strings.Cut(s, "@")
	if !ok {
		return Blackout{}, fmt.Errorf("blackout %q is not node@start+duration", s)
	}
	node, err := strconv.Atoi(ns)
	if err != nil {
		return Blackout{}, err
	}
	start, dur, err := parseWindow(ws)
	if err != nil {
		return Blackout{}, err
	}
	return Blackout{Node: node, Start: start, Duration: dur}, nil
}

func parsePartition(s string) (Partition, error) {
	ls, ws, ok := strings.Cut(s, "@")
	if !ok {
		return Partition{}, fmt.Errorf("partition %q is not from>to@start+duration", s)
	}
	fs, ts, ok := strings.Cut(ls, ">")
	if !ok {
		return Partition{}, fmt.Errorf("partition link %q is not from>to", ls)
	}
	from, err := strconv.Atoi(fs)
	if err != nil {
		return Partition{}, err
	}
	to, err := strconv.Atoi(ts)
	if err != nil {
		return Partition{}, err
	}
	start, dur, err := parseWindow(ws)
	if err != nil {
		return Partition{}, err
	}
	return Partition{From: from, To: to, Start: start, Duration: dur}, nil
}

// String renders the config back into Parse's syntax (a round-trip).
func (c *Config) String() string {
	if !c.Enabled() && (c == nil || c.Seed == 0) {
		return "off"
	}
	var terms []string
	add := func(s string) { terms = append(terms, s) }
	add("seed=" + strconv.FormatUint(c.Seed, 10))
	prob := func(k string, p float64) {
		if p > 0 {
			add(k + "=" + strconv.FormatFloat(p, 'g', -1, 64))
		}
	}
	prob("drop", c.Drop)
	prob("dup", c.Dup)
	prob("reorder", c.Reorder)
	prob("corrupt", c.Corrupt)
	if c.Delay > 0 {
		add(fmt.Sprintf("delay=%s:%s", strconv.FormatFloat(c.Delay, 'g', -1, 64), c.DelayMax))
	}
	if c.Stall > 0 {
		add(fmt.Sprintf("stall=%s:%s", strconv.FormatFloat(c.Stall, 'g', -1, 64), c.StallFor))
	}
	if c.Sever > 0 {
		s := "sever=" + strconv.FormatFloat(c.Sever, 'g', -1, 64)
		if c.SeverMax > 0 {
			s += ":" + strconv.Itoa(c.SeverMax)
		}
		add(s)
	}
	bl := append([]Blackout(nil), c.Blackouts...)
	sort.Slice(bl, func(i, j int) bool { return bl[i].Start < bl[j].Start })
	for _, b := range bl {
		add(fmt.Sprintf("blackout=%d@%s+%s", b.Node, b.Start, b.Duration))
	}
	pt := append([]Partition(nil), c.Partitions...)
	sort.Slice(pt, func(i, j int) bool { return pt[i].Start < pt[j].Start })
	for _, p := range pt {
		add(fmt.Sprintf("part=%d>%d@%s+%s", p.From, p.To, p.Start, p.Duration))
	}
	return strings.Join(terms, ",")
}
