package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ml"
)

// TestSnapshotETag pins the generation-identifier format and its
// uniqueness properties: stable across calls on one snapshot, distinct
// across snapshots even when the bare generation counter repeats
// (restart / cold retrain), since the build timestamp joins the tag.
func TestSnapshotETag(t *testing.T) {
	at := time.Unix(3, 141_592_653).UTC()
	s := &Snapshot{Generation: 7, BuiltAt: at}
	want := fmt.Sprintf(`"g7-%x"`, uint64(at.UnixNano()))
	if got := s.ETag(); got != want {
		t.Fatalf("ETag = %q, want %q", got, want)
	}
	if got := s.GenerationID(); `"`+got+`"` != want {
		t.Fatalf("GenerationID = %q, want unquoted %q", got, want)
	}
	if got := s.ETag(); got != want {
		t.Fatalf("ETag not stable: %q", got)
	}
	same := &Snapshot{Generation: 7, BuiltAt: at.Add(time.Nanosecond)}
	if same.ETag() == s.ETag() {
		t.Fatal("snapshots with equal generation but different build times share a tag")
	}
	next := &Snapshot{Generation: 8, BuiltAt: at}
	if next.ETag() == s.ETag() {
		t.Fatal("snapshots with different generations share a tag")
	}
}

// TestWithModelsCopiesEveryField: the copy a restore publishes once its
// models decode keeps every exported field of the restored rows; only
// Models differs. Each field is filled with a non-zero value by kind, so
// a field added to Snapshot and missed by withModels fails here.
func TestWithModelsCopiesEveryField(t *testing.T) {
	var s Snapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeOf(time.Time{}):
			f.Set(reflect.ValueOf(time.Unix(3, 0)))
		case f.Kind() == reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case f.Kind() == reflect.Map:
			f.Set(reflect.MakeMap(f.Type()))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(3)
		case f.CanUint():
			f.SetUint(3)
		default:
			t.Fatalf("field %s: no non-zero value for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	models := map[string]ml.Regressor{"v01": nil}
	c := reflect.ValueOf(s.withModels(models)).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if !v.Type().Field(i).IsExported() || name == "Models" {
			continue
		}
		if !reflect.DeepEqual(c.Field(i).Interface(), v.Field(i).Interface()) {
			t.Errorf("withModels dropped %s: %v, want %v", name, c.Field(i), v.Field(i))
		}
	}
	if got := c.FieldByName("Models").Interface().(map[string]ml.Regressor); len(got) != 1 {
		t.Errorf("withModels carries models %v, want %v", got, models)
	}
}
