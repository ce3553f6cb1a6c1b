package analysis

import "testing"

func TestMapOrder(t *testing.T)      { runFixture(t, MapOrder, "maporder.txt") }
func TestWallClock(t *testing.T)     { runFixture(t, WallClock, "wallclock.txt") }
func TestHotPath(t *testing.T)       { runFixture(t, HotPath, "hotpath.txt") }
func TestHotPathGossip(t *testing.T) { runFixture(t, HotPath, "hotpath_gossip.txt") }
func TestTracerGuard(t *testing.T)   { runFixture(t, TracerGuard, "tracerguard.txt") }
func TestFrozenDoc(t *testing.T)     { runFixture(t, FrozenDoc, "frozendoc.txt") }

func TestTxtarParse(t *testing.T) {
	files := parseTxtar("comment line\n-- a/b.go --\npackage b\n-- c.txt --\nhello\n")
	if len(files) != 2 {
		t.Fatalf("got %d files, want 2", len(files))
	}
	if files[0].name != "a/b.go" || files[0].data != "package b\n" {
		t.Errorf("file 0 = %q %q", files[0].name, files[0].data)
	}
	if files[1].name != "c.txt" || files[1].data != "hello\n" {
		t.Errorf("file 1 = %q %q", files[1].name, files[1].data)
	}
}
