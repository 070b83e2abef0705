package snapfile

import (
	"os"
	"path/filepath"
	"testing"
)

// Build a structurally valid file (header, table CRC, footer, section
// CRCs all correct) whose meta section ends mid-scalar.
func TestReviewTruncatedMeta(t *testing.T) {
	meta := []byte{1}                                // version=1
	meta = append(meta, uvb(uint64(blockSize()))...) // block size
	meta = append(meta, 5)                           // nodeCount=5; then truncated
	paths := []byte{}
	secs := []section{{secMeta, meta}, {secPaths, paths}}
	buf := assemble(secs, 0)
	p := filepath.Join(t.TempDir(), "trunc.seg")
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(p, OpenOptions{NoMmap: true})
	if err == nil {
		r.Close()
		t.Fatal("expected error")
	}
	t.Logf("got error (no panic): %v", err)
}

func uvb(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
