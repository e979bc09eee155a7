"""The sign test that the root-of-unity checks hold the exact test to.

For m_alpha < 0 < m_beta, m_gamma the monomial alpha**m_alpha *
beta**m_beta * gamma**m_gamma has absolute value
alpha**((2*m_alpha - m_beta - m_gamma)/2) at the real embedding, since
|beta| = |gamma| = alpha**(-1/2).  That value is not 1, so the monomial
cannot be a root of unity.
"""


def fast_path_refutes(m_alpha: int, m_beta: int, m_gamma: int) -> bool:
    """True when the sign criterion applies and refutes."""
    return (m_alpha < 0 and m_beta > 0 and m_gamma > 0
            and 2 * m_alpha - m_beta - m_gamma < 0)
