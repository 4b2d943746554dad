// Package likir implements the identity layer DHARMA runs on. The paper
// deploys its primitives on Likir ("Tempering Kademlia with a robust
// identity based system", Aiello et al., P2P'08), a Kademlia variant in
// which a certification service binds each node identifier to a user
// identity, and stored content is signed by its author.
//
// This package reproduces the two mechanisms DHARMA relies on:
//
//   - Node admission: a central Authority issues a Credential binding an
//     identity name and an Ed25519 public key to the node identifier
//     derived from them (NodeID = SHA-1(pubkey ‖ name)). Nodes cannot
//     choose their own position in the key space, which defeats targeted
//     key-space attacks.
//   - Content authenticity: block entries are signed over (block key,
//     field, data) so a storage node cannot forge or tamper with arcs it
//     hosts.
//
// Only the Go standard library is used (crypto/ed25519, crypto/sha1).
// The package deliberately depends on nothing above kadid, so the
// transport stack (wire, session) can build on it without cycles.
package likir

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dharma/internal/kadid"
)

// Errors reported by credential and entry verification.
var (
	ErrBadCredential = errors.New("likir: invalid credential")
	ErrExpired       = errors.New("likir: credential expired")
	ErrBadSignature  = errors.New("likir: invalid entry signature")
)

// DefaultValidity is the lifetime of an issued credential.
const DefaultValidity = 365 * 24 * time.Hour

// Credential certifies that an identity name and public key are bound
// to a node identifier. It is issued and signed by an Authority.
type Credential struct {
	Name      string
	Pub       ed25519.PublicKey
	NodeID    kadid.ID
	IssuedAt  int64 // unix seconds
	ExpiresAt int64 // unix seconds
	CASig     []byte
}

// Identity is a principal's full key material: its credential plus the
// private key matching Credential.Pub.
type Identity struct {
	Credential
	Priv ed25519.PrivateKey
}

// Authority is the Likir certification service. It holds the CA key
// pair, issues credentials and maintains the revocation list. Clock is
// injectable for tests; nil means time.Now.
type Authority struct {
	pub      ed25519.PublicKey
	priv     ed25519.PrivateKey
	validity time.Duration
	now      func() time.Time

	revokedMu sync.Mutex
	revoked   map[kadid.ID]bool
}

// NewAuthority creates a certification service with a fresh CA key pair
// read from rng (nil means crypto/rand). A zero validity selects
// DefaultValidity.
func NewAuthority(rng io.Reader, validity time.Duration, now func() time.Time) (*Authority, error) {
	if rng == nil {
		rng = rand.Reader
	}
	if validity <= 0 {
		validity = DefaultValidity
	}
	if now == nil {
		now = time.Now
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("likir: generate CA key: %w", err)
	}
	return &Authority{pub: pub, priv: priv, validity: validity, now: now}, nil
}

// PublicKey returns the CA public key that nodes use to verify
// credentials.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.pub }

// DeriveNodeID computes the identifier Likir assigns to (pub, name).
func DeriveNodeID(pub ed25519.PublicKey, name string) kadid.ID {
	h := sha1.New()
	h.Write(pub)
	io.WriteString(h, name) //nolint:errcheck // sha1 writes never fail
	var id kadid.ID
	copy(id[:], h.Sum(nil))
	return id
}

// Issue generates a key pair for name, derives its node identifier and
// returns the signed identity. rng nil means crypto/rand.
func (a *Authority) Issue(rng io.Reader, name string) (*Identity, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("likir: generate identity key: %w", err)
	}
	issued := a.now().Unix()
	cred := Credential{
		Name:      name,
		Pub:       pub,
		NodeID:    DeriveNodeID(pub, name),
		IssuedAt:  issued,
		ExpiresAt: issued + int64(a.validity/time.Second),
	}
	cred.CASig = ed25519.Sign(a.priv, credentialTBS(&cred))
	return &Identity{Credential: cred, Priv: priv}, nil
}

// credentialTBS returns the to-be-signed encoding of a credential
// (everything except the CA signature).
func credentialTBS(c *Credential) []byte {
	var b bytes.Buffer
	writeBlob(&b, []byte(c.Name))
	writeBlob(&b, c.Pub)
	b.Write(c.NodeID[:])
	binary.Write(&b, binary.BigEndian, c.IssuedAt)  //nolint:errcheck
	binary.Write(&b, binary.BigEndian, c.ExpiresAt) //nolint:errcheck
	return b.Bytes()
}

// VerifyCredential checks the CA signature, the node-identifier binding
// and the validity window of cred. now nil means time.Now.
func VerifyCredential(caPub ed25519.PublicKey, cred *Credential, now func() time.Time) error {
	if now == nil {
		now = time.Now
	}
	if len(cred.Pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key size", ErrBadCredential)
	}
	if DeriveNodeID(cred.Pub, cred.Name) != cred.NodeID {
		return fmt.Errorf("%w: node id does not match identity", ErrBadCredential)
	}
	if !ed25519.Verify(caPub, credentialTBS(cred), cred.CASig) {
		return fmt.Errorf("%w: CA signature check failed", ErrBadCredential)
	}
	t := now().Unix()
	if t < cred.IssuedAt || t > cred.ExpiresAt {
		return ErrExpired
	}
	return nil
}

// Marshal encodes the credential for a session HELLO and an identity
// file.
func (c *Credential) Marshal() []byte {
	var b bytes.Buffer
	writeBlob(&b, []byte(c.Name))
	writeBlob(&b, c.Pub)
	b.Write(c.NodeID[:])
	binary.Write(&b, binary.BigEndian, c.IssuedAt)  //nolint:errcheck
	binary.Write(&b, binary.BigEndian, c.ExpiresAt) //nolint:errcheck
	writeBlob(&b, c.CASig)
	return b.Bytes()
}

// UnmarshalCredential decodes a credential produced by Marshal.
func UnmarshalCredential(data []byte) (*Credential, error) {
	r := bytes.NewReader(data)
	name, err := readBlob(r)
	if err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrBadCredential, err)
	}
	pub, err := readBlob(r)
	if err != nil {
		return nil, fmt.Errorf("%w: pub: %v", ErrBadCredential, err)
	}
	var id kadid.ID
	if _, err := io.ReadFull(r, id[:]); err != nil {
		return nil, fmt.Errorf("%w: node id: %v", ErrBadCredential, err)
	}
	var issued, expires int64
	if err := binary.Read(r, binary.BigEndian, &issued); err != nil {
		return nil, fmt.Errorf("%w: issued: %v", ErrBadCredential, err)
	}
	if err := binary.Read(r, binary.BigEndian, &expires); err != nil {
		return nil, fmt.Errorf("%w: expires: %v", ErrBadCredential, err)
	}
	sig, err := readBlob(r)
	if err != nil {
		return nil, fmt.Errorf("%w: sig: %v", ErrBadCredential, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadCredential)
	}
	return &Credential{
		Name: string(name), Pub: pub, NodeID: id,
		IssuedAt: issued, ExpiresAt: expires, CASig: sig,
	}, nil
}

// entryTBS is the byte string an entry signature covers: the block key,
// the field name and the opaque data. Counts are excluded deliberately:
// they are aggregates of one-bit tokens appended by many writers and
// are not attributable to a single author.
func entryTBS(key kadid.ID, field string, data []byte) []byte {
	var b bytes.Buffer
	b.Write(key[:])
	writeBlob(&b, []byte(field))
	writeBlob(&b, data)
	return b.Bytes()
}

// SignEntry signs the (block key, field, data) triple of an entry and
// returns the author public key and signature to attach to it.
func (id *Identity) SignEntry(key kadid.ID, field string, data []byte) (author, sig []byte) {
	author = append([]byte(nil), id.Pub...)
	sig = ed25519.Sign(id.Priv, entryTBS(key, field, data))
	return author, sig
}

// VerifyEntry checks the author signature on a signed entry. Unsigned
// entries (no author) are accepted: the overlay may run open.
func VerifyEntry(key kadid.ID, field string, data, author, sig []byte) error {
	if len(author) == 0 {
		return nil
	}
	if len(author) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad author key size", ErrBadSignature)
	}
	if !ed25519.Verify(ed25519.PublicKey(author), entryTBS(key, field, data), sig) {
		return ErrBadSignature
	}
	return nil
}

func writeBlob(b *bytes.Buffer, p []byte) {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(p)))
	b.Write(lenBuf[:n])
	b.Write(p)
}

func readBlob(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("blob of %d bytes", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return p, nil
}
