// Cryptographic primitives used by MiniCrypt (paper §2.5): AES-256-GCM pack
// encryption with a random IV per envelope, SHA-256 hashing of ciphertexts
// (the update-if token), and an HMAC-SHA256 PRF for deterministic packID
// encryption. All of it is OpenSSL (EVP, SHA256, HMAC).

#ifndef MINICRYPT_SRC_CRYPTO_CRYPTO_H_
#define MINICRYPT_SRC_CRYPTO_CRYPTO_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace minicrypt {

inline constexpr size_t kAesKeyBytes = 32;   // AES-256
inline constexpr size_t kSha256Bytes = 32;
inline constexpr size_t kAesGcmIvBytes = 12;
inline constexpr size_t kAesGcmTagBytes = 16;

// A 256-bit symmetric key. Wiped on destruction. The client holds this; the
// server never sees it (threat model §2.1).
class SymmetricKey {
 public:
  // Derives a key from a passphrase-like seed (HKDF-ish: SHA-256 chain).
  // Deterministic — the same seed yields the same key on every client, which
  // is how the paper's "clients share a single encryption key" is modelled.
  static SymmetricKey FromSeed(std::string_view seed);

  ~SymmetricKey();

  SymmetricKey(const SymmetricKey&) = default;
  SymmetricKey& operator=(const SymmetricKey&) = default;

  const uint8_t* data() const { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }

  // Derives an independent subkey for a named purpose (domain separation:
  // pack encryption vs packID PRF vs per-table keys).
  SymmetricKey Derive(std::string_view purpose) const;

 private:
  SymmetricKey() = default;

  std::array<uint8_t, kAesKeyBytes> bytes_{};
};

// SHA-256 of `data`, as a 32-byte string. Used as the pack hash h in the
// update-if protocol (paper Figure 5).
std::string Sha256(std::string_view data);

// HMAC-SHA256(key, data) — the PRF used for packID encryption (paper §2.5:
// "MiniCrypt applies a pseudorandom function to the packIDs").
std::string HmacSha256(const SymmetricKey& key, std::string_view data);

// Constant-time equality for MACs/hashes.
bool ConstantTimeEqual(std::string_view a, std::string_view b);

// AES-256-GCM envelope: output = IV (12 bytes) || ciphertext (same length as
// the plaintext) || tag (16 bytes). A fresh random IV is drawn per call.
// Authenticated: tampering with any envelope byte fails decryption, so packs
// no longer rely solely on the external SHA-256 hash for integrity.
//
// `aad` is additional authenticated data: covered by the tag but not
// encrypted or stored in the envelope. Decryption must present the same
// bytes, which is how envelopes are bound to their table / packID / key
// epoch (an envelope spliced into another context fails the tag check).
Result<std::string> AesGcmEncrypt(const SymmetricKey& key, std::string_view plaintext,
                                  std::string_view aad = {});

// Inverse of AesGcmEncrypt. Corruption on malformed envelopes, tag mismatch,
// or an `aad` that differs from the one sealed over.
Result<std::string> AesGcmDecrypt(const SymmetricKey& key, std::string_view envelope,
                                  std::string_view aad = {});

// Fills `out` with CSPRNG bytes.
Status RandomBytes(uint8_t* out, size_t n);

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CRYPTO_CRYPTO_H_
