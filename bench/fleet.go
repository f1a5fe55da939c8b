package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// allowanceSeconds is T_v, the paper's allowed utilisation seconds per
// maintenance cycle. The driver needs it only to cut seed series into
// the paper's cold-start categories.
const allowanceSeconds = 2_000_000.0

const dayLayout = "2006-01-02"

// Vehicle categories as the paper (and GET /vehicles) names them.
const (
	catOld     = "old"
	catSemiNew = "semi-new"
	catNew     = "new"
)

// seedVehicle is one vehicle of the seed CSV: its rows as written, so
// the reference CSV reproduces them byte for byte.
type seedVehicle struct {
	id, model, class string
	first            time.Time // date of seconds[0]
	seconds          []string  // one CSV cell per day
	category         string
}

func (v *seedVehicle) lastDay() time.Time { return v.first.AddDate(0, 0, len(v.seconds)-1) }

// readFleetCSV parses a fleetgen CSV (vehicle,model,class,date,seconds;
// rows grouped by vehicle, one per consecutive day).
func readFleetCSV(path string) ([]*seedVehicle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "vehicle,model,class,date,seconds" {
		return nil, fmt.Errorf("%s: missing fleet CSV header", path)
	}
	var fleet []*seedVehicle
	var cur *seedVehicle
	for line := 2; sc.Scan(); line++ {
		parts := strings.Split(strings.TrimSpace(sc.Text()), ",")
		if len(parts) != 5 {
			return nil, fmt.Errorf("%s:%d: want 5 fields, got %d", path, line, len(parts))
		}
		if cur == nil || cur.id != parts[0] {
			first, err := time.Parse(dayLayout, parts[3])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			cur = &seedVehicle{id: parts[0], model: parts[1], class: parts[2], first: first, category: catOld}
			fleet = append(fleet, cur)
		}
		cur.seconds = append(cur.seconds, parts[4])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(fleet) == 0 {
		return nil, fmt.Errorf("%s: no vehicles", path)
	}
	return fleet, nil
}

// truncateFleet turns every 8th vehicle into a semi-new one (the prefix
// of its series that reaches 0.75·T_v) and every 8th+1 into a new one
// (0.25·T_v), re-dated so every series still ends on the fleet's last
// day: 24 vehicles become 18 old / 3 semi-new / 3 new.
func truncateFleet(fleet []*seedVehicle) error {
	for i, v := range fleet {
		var share float64
		switch i % 8 {
		case 0:
			share, v.category = 0.75, catSemiNew
		case 1:
			share, v.category = 0.25, catNew
		default:
			continue
		}
		last := v.lastDay()
		cum, keep := 0.0, 0
		for keep < len(v.seconds) && cum < share*allowanceSeconds {
			sec, err := strconv.ParseFloat(v.seconds[keep], 64)
			if err != nil {
				return fmt.Errorf("vehicle %s day %d: %w", v.id, keep, err)
			}
			cum += sec
			keep++
		}
		if cum < share*allowanceSeconds {
			return fmt.Errorf("vehicle %s never reaches %.2f·T_v", v.id, share)
		}
		v.seconds = v.seconds[:keep]
		v.first = last.AddDate(0, 0, -(keep - 1))
	}
	return nil
}

// report is one daily-usage report. Seconds are whole tenths, so the
// value survives the CSV's one-decimal format, JSON and the binary
// frame identically.
type report struct {
	vehicle string
	day     time.Time
	tenths  int
}

func (r report) seconds() float64 { return float64(r.tenths) / 10 }

func formatTenths(t int) string { return strconv.FormatFloat(float64(t)/10, 'f', 1, 64) }

// writeFleetCSV writes the fleet, plus any reports acknowledged for it
// and any bulk vehicles, in fleetgen's format. A day inside a vehicle's
// span that no report covers is written as 0.0, which is what the
// ingest store serves for it.
func writeFleetCSV(path string, fleet []*seedVehicle, acked map[string]map[int64]int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "vehicle,model,class,date,seconds")
	seen := make(map[string]bool, len(fleet))
	writeRows := func(id, model, class string, first time.Time, seconds []string, extra map[int64]int) {
		day := first
		for _, s := range seconds {
			fmt.Fprintf(w, "%s,%s,%s,%s,%s\n", id, model, class, day.Format(dayLayout), s)
			day = day.AddDate(0, 0, 1)
		}
		if len(extra) == 0 {
			return
		}
		days := make([]int64, 0, len(extra))
		for d := range extra {
			days = append(days, d)
		}
		sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
		if len(seconds) == 0 {
			day = epochDayTime(days[0])
		}
		for _, d := range days {
			for ; epochDay(day) < d; day = day.AddDate(0, 0, 1) {
				fmt.Fprintf(w, "%s,%s,%s,%s,0.0\n", id, model, class, day.Format(dayLayout))
			}
			if epochDay(day) == d {
				fmt.Fprintf(w, "%s,%s,%s,%s,%s\n", id, model, class, day.Format(dayLayout), formatTenths(extra[d]))
				day = day.AddDate(0, 0, 1)
			}
		}
	}
	for _, v := range fleet {
		seen[v.id] = true
		writeRows(v.id, v.model, v.class, v.first, v.seconds, acked[v.id])
	}
	var bulk []string
	for id := range acked {
		if !seen[id] {
			bulk = append(bulk, id)
		}
	}
	sort.Strings(bulk)
	for _, id := range bulk {
		writeRows(id, "BULK", "excavator", time.Time{}, nil, acked[id])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func epochDay(t time.Time) int64       { return t.Unix() / 86400 }
func epochDayTime(day int64) time.Time { return time.Unix(day*86400, 0).UTC() }

// reportSource hands out each vehicle's next daily report. Vehicles are
// visited in a seeded shuffle that is cycled, so every run sends the
// same category mix (75 % old) and a vehicle never reports twice in
// quick succession.
type reportSource struct {
	rng   *rand.Rand
	order []*seedVehicle
	next  int
	day   map[string]time.Time
}

func newReportSource(fleet []*seedVehicle, seed int64) *reportSource {
	rs := &reportSource{
		rng:   rand.New(rand.NewSource(seed)),
		order: append([]*seedVehicle(nil), fleet...),
		day:   make(map[string]time.Time, len(fleet)),
	}
	rs.rng.Shuffle(len(rs.order), func(i, j int) { rs.order[i], rs.order[j] = rs.order[j], rs.order[i] })
	for _, v := range fleet {
		rs.day[v.id] = v.lastDay()
	}
	return rs
}

// nextReport returns the next vehicle in the cycle reporting its next
// day, with between 1 and 8 hours of use.
func (rs *reportSource) nextReport() (report, *seedVehicle) {
	v := rs.order[rs.next%len(rs.order)]
	rs.next++
	return rs.reportFor(v), v
}

func (rs *reportSource) reportFor(v *seedVehicle) report {
	d := rs.day[v.id].AddDate(0, 0, 1)
	rs.day[v.id] = d
	return report{vehicle: v.id, day: d, tenths: 36000 + rs.rng.Intn(252001)}
}
