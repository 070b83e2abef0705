package snapfile

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xclean/internal/postings"
)

// memoLen counts the reader's memo entries.
func memoLen(r *Reader) int {
	n := 0
	r.memo.Range(func(_, _ any) bool { n++; return true })
	return n
}

// touch runs every per-token accessor once.
func touch(r *Reader, tok string) {
	v := r.Vocabulary()
	v.Contains(tok)
	v.Count(tok)
	v.Prob(tok)
	r.DocFreq(tok)
	r.TypeList(tok)
	r.MergedListFor([]string{tok}).Release()
}

// TestTokenMemoBounds: the memo holds present tokens only — whatever
// untrusted queries probe, it cannot outgrow the vocabulary — and the
// whole-file walks (Verify, Materialize) leave it alone.
func TestTokenMemoBounds(t *testing.T) {
	ix := buildSample(t)
	r, err := Open(writeSample(t, ix), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if n := memoLen(r); n != 0 {
		t.Fatalf("memo holds %d entries after Verify and Materialize, want 0", n)
	}
	rng := rand.New(rand.NewSource(3))
	garbage := func() string {
		b := make([]byte, 1+rng.Intn(12))
		rng.Read(b)
		return "\x01" + string(b) // no indexed token starts with 0x01
	}
	for i := 0; i < 10000; i++ {
		touch(r, garbage())
		touch(r, fmt.Sprintf("absent%d", i))
	}
	if n := memoLen(r); n != 0 {
		t.Fatalf("memo holds %d entries after 20000 absent tokens, want 0", n)
	}
	size := r.Vocabulary().Size()
	for round := 0; round < 3; round++ {
		for _, tok := range r.VocabList() {
			touch(r, tok)
			touch(r, garbage())
			if n := memoLen(r); n > size {
				t.Fatalf("memo holds %d entries, vocabulary has %d", n, size)
			}
		}
	}
	if n := memoLen(r); n != size {
		t.Fatalf("memo holds %d entries after touching all %d tokens", n, size)
	}
	// Served from the memo, the source still agrees with the heap index.
	compareSource(t, ix, r)
}

// TestTokenMemoConcurrentFirstTouch: goroutines racing to resolve one
// token for the first time all end up sharing one entry (run under
// -race).
func TestTokenMemoConcurrentFirstTouch(t *testing.T) {
	r, err := Open(writeSample(t, buildSample(t)), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const workers = 8
	lists := make([]*postings.List, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			touch(r, "smith")
			lists[g] = r.postingList("smith")
		}(g)
	}
	close(start)
	wg.Wait()
	for g, l := range lists {
		if l == nil || l != lists[0] {
			t.Fatalf("goroutine %d got list %p, goroutine 0 got %p", g, l, lists[0])
		}
	}
	if n := memoLen(r); n != 1 {
		t.Fatalf("memo holds %d entries for one token", n)
	}
}

// TestCorruptSkipBlobNotMemoised: a token whose skip blob fails
// validation keeps reading as "no postings" on every call and never
// enters the memo; its record statistics still answer, and its
// neighbours are unaffected.
func TestCorruptSkipBlobNotMemoised(t *testing.T) {
	ix := buildSample(t)
	path := writeSample(t, ix)
	good, err := Open(path, OpenOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	i := good.findToken("smith")
	if i < 0 {
		t.Fatal("fixture lacks the token")
	}
	// Both slices end where the file buffer ends, so the capacity
	// difference is the section's file offset.
	skipsOff := cap(good.data) - cap(good.secs[secSkips])
	data := append([]byte(nil), good.data...)
	data[skipsOff+int(good.rec(i).skipOff)+1] = 7 // block count of a 2-posting list
	good.Close()
	bad := filepath.Join(t.TempDir(), "bad.seg")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(bad, OpenOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round < 3; round++ {
		if m := r.MergedListFor([]string{"smith"}); !m.Exhausted() {
			t.Fatal("corrupt list served postings")
		}
		if got, want := r.Vocabulary().Count("smith"), ix.Vocabulary().Count("smith"); got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
		if got, want := r.DocFreq("smith"), ix.DocFreq("smith"); got != want {
			t.Fatalf("DocFreq = %d, want %d", got, want)
		}
		if n := memoLen(r); n != 0 {
			t.Fatalf("round %d: corrupt token memoised (%d entries)", round, n)
		}
	}
	if m := r.MergedListFor([]string{"mary"}); m.Exhausted() {
		t.Fatal("neighbouring token lost its postings")
	}
	if n := memoLen(r); n != 1 {
		t.Fatalf("memo holds %d entries, want the one healthy token", n)
	}
}

// assemble lays sections out as Write does.
func assemble(secs []section, flags uint32) []byte {
	off := uint64(headerLen + secEntryLen*len(secs))
	table := make([]byte, secEntryLen*len(secs))
	foot := make([]byte, footEntryLen*len(secs)+footTailLen)
	var body []byte
	for i, s := range secs {
		e := table[i*secEntryLen:]
		putU32(e[0:], s.id)
		putU64(e[8:], off+uint64(len(body)))
		putU64(e[16:], uint64(len(s.data)))
		body = append(body, s.data...)
		putU32(foot[i*footEntryLen:], s.id)
		putU32(foot[i*footEntryLen+4:], crcOf(s.data))
	}
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	putU32(hdr[8:], uint32(len(secs)))
	putU32(hdr[12:], flags)
	putU32(hdr[16:], crcOf(table))
	buf := append(append(hdr, table...), body...)
	putU64(foot[len(foot)-16:], uint64(len(buf)+len(foot)))
	copy(foot[len(foot)-8:], endMagic)
	return append(buf, foot...)
}

// TestUnknownSections: sections a future writer adds under ids this
// build does not index are still bounds-checked and de-duplicated at
// open and checksummed by Verify.
func TestUnknownSections(t *testing.T) {
	ix := buildSample(t)
	tab := ix.ExportTables()
	secs, flags, err := buildSections(&tab)
	if err != nil {
		t.Fatal(err)
	}
	open := func(data []byte) (*Reader, error) {
		p := filepath.Join(t.TempDir(), "u.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return Open(p, OpenOptions{NoMmap: true})
	}
	extra := section{id: 99, data: []byte("from the future")}
	with := append(append([]section(nil), secs...), extra)

	r, err := open(assemble(with, flags))
	if err != nil {
		t.Fatalf("unknown section rejected: %v", err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	compareSource(t, ix, r)
	r.Close()

	data := assemble(with, flags)
	at := bytes.Index(data, extra.data)
	data[at] ^= 1
	r, err = open(data)
	if err != nil {
		t.Fatalf("open checks only meta and paths, got %v", err)
	}
	if err := r.Verify(); err == nil {
		t.Error("Verify passed a damaged unknown section")
	}
	r.Close()

	for _, dup := range []section{extra, secs[len(secs)-1]} {
		if r, err := open(assemble(append(with[:len(with):len(with)], dup), flags)); err == nil {
			r.Close()
			t.Errorf("duplicate section %d accepted", dup.id)
		}
	}
}

// TestCmpBigramKey: the in-place comparison orders exactly as comparing
// against the concatenated probe key would.
func TestCmpBigramKey(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	str := func() string {
		b := make([]byte, rng.Intn(4))
		for i := range b {
			b[i] = "\x00ab"[rng.Intn(3)]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		k, w1, w2 := []byte(str()+str()), str(), str()
		want := bytes.Compare(k, []byte(w1+"\x00"+w2))
		if got := cmpBigramKey(k, w1, w2); got != want {
			t.Fatalf("cmpBigramKey(%q, %q, %q) = %d, want %d", k, w1, w2, got, want)
		}
	}
}
