package telematics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

const dayKeyLayout = "2006-01-02"

// WriteCSV serializes a fleet's raw daily series as CSV with the header
// vehicle,model,class,date,seconds. NaN (missing) days are written as
// empty fields, matching how telematics backends export gaps.
func (f *Fleet) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "vehicle,model,class,date,seconds"); err != nil {
		return fmt.Errorf("telematics: writing CSV header: %w", err)
	}
	for _, v := range f.Vehicles {
		for t, sec := range v.RawU {
			date := v.Start.AddDate(0, 0, t).Format(dayKeyLayout)
			field := ""
			if !math.IsNaN(sec) {
				field = strconv.FormatFloat(sec, 'f', 1, 64)
			}
			if _, err := fmt.Fprintf(bw, "%s,%s,%s,%s,%s\n", v.Profile.ID, v.Profile.Model, v.Profile.Class, date, field); err != nil {
				return fmt.Errorf("telematics: writing CSV row: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses the CSV format produced by WriteCSV back into a fleet
// (profiles carry only ID/model/class; generator parameters are not
// serialized). Rows must be grouped by vehicle and sorted by date.
func ReadCSV(r io.Reader) (*Fleet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("telematics: empty CSV input")
	}
	if got := strings.TrimSpace(sc.Text()); got != "vehicle,model,class,date,seconds" {
		return nil, fmt.Errorf("telematics: unexpected CSV header %q", got)
	}
	fleet := &Fleet{}
	var cur *VehicleData
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 5 {
			return nil, fmt.Errorf("telematics: line %d: want 5 fields, got %d", line, len(parts))
		}
		id, model, class, dateStr, secStr := parts[0], parts[1], parts[2], parts[3], parts[4]
		date, err := time.Parse(dayKeyLayout, dateStr)
		if err != nil {
			return nil, fmt.Errorf("telematics: line %d: bad date %q: %w", line, dateStr, err)
		}
		sec := math.NaN()
		if secStr != "" {
			sec, err = strconv.ParseFloat(secStr, 64)
			if err != nil {
				return nil, fmt.Errorf("telematics: line %d: bad seconds %q: %w", line, secStr, err)
			}
		}
		if cur == nil || cur.Profile.ID != id {
			fleet.Vehicles = append(fleet.Vehicles, VehicleData{
				Profile: Profile{ID: id, Model: model, Class: VehicleClass(class)},
				Start:   date,
			})
			cur = &fleet.Vehicles[len(fleet.Vehicles)-1]
		}
		wantDay := len(cur.RawU)
		if got := int(date.Sub(cur.Start).Hours() / 24); got != wantDay {
			return nil, fmt.Errorf("telematics: line %d: vehicle %s day gap, expected offset %d got %d", line, id, wantDay, got)
		}
		cur.RawU = append(cur.RawU, sec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telematics: scanning CSV: %w", err)
	}
	if len(fleet.Vehicles) == 0 {
		return nil, fmt.Errorf("telematics: CSV contained no data rows")
	}
	return fleet, nil
}
