package engine

import (
	"fmt"
	"testing"
	"time"
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
