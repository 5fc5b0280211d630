"""Golden violation: KernelUnsupported outside the vocabulary (K202)."""


class KernelUnsupported(Exception):
    def __init__(self, kernel, reason=None):
        super().__init__(kernel)


def certification_failure(adversary, *, supported=("crash",)):
    return None


def reject_exotic():
    raise KernelUnsupported("warp", "too exotic")  # expect: K202, K202


def reject_briefly():
    raise KernelUnsupported("columnar")  # expect: K202


def reject_with_made_up_family(adversary, failure):
    # "byzantine" is not in the crash/omission vocabulary, so the
    # rejection would name a family no adversary can declare.
    failure = certification_failure(
        adversary, supported=("crash", "byzantine")  # expect: K202
    )
    if failure is not None:
        raise KernelUnsupported("columnar", failure)


def reject_with_real_families(adversary):
    # The full declarable vocabulary is clean.
    return certification_failure(adversary, supported=("crash", "omission"))
