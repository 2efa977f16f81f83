package wire

import (
	"bytes"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, body := range [][]byte{nil, {0xAB}, bytes.Repeat([]byte{7}, 70<<10)} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 9, body); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 5+len(body) {
			t.Fatalf("%d-byte body framed into %d bytes", len(body), buf.Len())
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil || typ != 9 || !bytes.Equal(got, body) {
			t.Fatalf("ReadFrame = %d, %d bytes, %v", typ, len(got), err)
		}
		if _, _, err := ReadFrame(&buf); err != io.EOF {
			t.Fatalf("end of stream: got %v, want io.EOF", err)
		}
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, make([]byte, MaxFrame)); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized frame wrote %d bytes", buf.Len())
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	if _, _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedStream(t *testing.T) {
	// A frame header promising more bytes than the stream delivers must
	// surface as unexpected EOF, not a clean end of stream.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 5, []byte("sixteen bytes..!")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
		if cut >= 4 && err != io.ErrUnexpectedEOF {
			t.Fatalf("truncation at %d: got %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	// Zero-length prefix (no type byte) is also invalid.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err != ErrTruncatedFrame {
		t.Fatalf("zero-length frame: got %v, want ErrTruncatedFrame", err)
	}
}

func TestReaderLatchesUnderflow(t *testing.T) {
	r := NewReader([]byte{0, 9, 1, 2})
	if s := r.Str16(); s != "" {
		t.Errorf("short Str16 = %q", s)
	}
	// Once latched, reads return zero even where bytes remain.
	if v := r.U8(); v != 0 {
		t.Errorf("U8 after underflow = %d", v)
	}
	if err := r.Done(); err != ErrTruncatedFrame {
		t.Fatalf("Done = %v, want ErrTruncatedFrame", err)
	}

	r = NewReader([]byte{1, 2, 3})
	r.U16()
	if err := r.Done(); err == nil || err == ErrTruncatedFrame {
		t.Fatalf("trailing byte: Done = %v", err)
	}

	r = NewReader([]byte{7})
	r.Fail()
	if err := r.Done(); err != ErrTruncatedFrame {
		t.Fatalf("after Fail: Done = %v", err)
	}
}

// FuzzFrame hammers the frame reader with arbitrary streams: no input may
// panic or over-allocate, every error must be one of the documented
// classes, and a frame that reads cleanly must re-encode to exactly the
// bytes it was read from.
func FuzzFrame(f *testing.F) {
	for _, body := range [][]byte{nil, {0xAB}, []byte("hello, frame")} {
		for typ := byte(0); typ < 8; typ++ {
			var buf bytes.Buffer
			if WriteFrame(&buf, typ, body) == nil {
				f.Add(buf.Bytes())
			}
		}
	}
	f.Add([]byte{0, 0, 0, 2, 3, 0xFF})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF &&
				err != ErrFrameTooLarge && err != ErrTruncatedFrame {
				t.Fatalf("ReadFrame: unexpected error class %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, body); err != nil {
			t.Fatalf("WriteFrame of a frame just read: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("frame decode/encode not identity")
		}
	})
}
